#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads: how each MO is generated, which
// connections exist, and the statement stream each connection sends.
// Everything derives from the seed alone.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/md_object.h"

namespace perfbench {

/// One statement of the operation stream, sent on one connection.
struct Op {
  std::size_t conn = 0;
  std::string statement;
  bool write = false;
};

/// Timed-phase counters the coverage report checks a workload against.
struct Coverage {
  double reads = 0;
  double writes = 0;
  double view_rebuilds = 0;
  double dense_kernel_ratio = 0;
  double index_hit_ratio = 0;
  double index_fallbacks = 0;
  double flat_hash_runs = 0;
  double fastpath_ratio = 0;
};

struct Workload {
  std::string name;
  std::string mo_name;
  /// Connections the one client thread drives (at most 4).
  std::size_t connections = 1;
  /// Set-up reads, per connection: they build each session's view and
  /// fill its plan cache before anything is timed.
  std::vector<std::vector<std::string>> warmup;
  /// SELECTs whose (function, grouping) pairs set-up registers as warm
  /// pre-aggregates (MoStore::WarmAggregate).
  std::vector<std::string> warm_statements;
  /// The workload's main grouping, timed directly through AggregateStream
  /// by the traced run.
  std::string main_statement;
  /// Epoch-move rounds run after the timed phase so that every workload
  /// measures writes and first-reads-after-an-epoch-move; 0 when the
  /// timed phase already consists of such rounds.
  std::size_t tail_rounds = 0;

  /// What the workload's counters must show for it to exercise the
  /// mechanism it is chosen for (reported, not gated).
  std::string claim;
  std::function<bool(const Coverage&)> claim_holds;

  /// Generates the MO, identically on every call.
  std::function<mddc::Result<mddc::MdObject>()> generate;
  /// The timed phase's stream, one group of ops per call (a group is run
  /// whole, so a round is never cut in half).
  std::function<std::vector<Op>()> next_group;
  /// One epoch-move round: a 3-fact INSERT on connection 0, then the
  /// first read after it on every reading connection (connection 0 itself
  /// when it is the only one).
  std::function<std::vector<Op>()> next_tail_round;
};

/// The workload named `name` ("read-steady", "ingest-fanout",
/// "clinical-mix") for `seed`. Builds one MO to learn the value names the
/// INSERT generator may use.
mddc::Result<Workload> MakeWorkload(const std::string& name,
                                    std::uint32_t seed);

/// 64-bit FNV-1a over each op's connection, kind and statement.
std::uint64_t DigestOps(const std::vector<Op>& ops, std::size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
