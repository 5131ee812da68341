#ifndef PERFBENCH_TRACED_REPLAY_H_
#define PERFBENCH_TRACED_REPLAY_H_

// The traced run: replays a TCP run's operation stream in-process and
// times each layer from outside, at its public entry points.

#include <string>
#include <vector>

#include "common/result.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReplayOutcome {
  /// Every per-layer metric of BENCHMARK.json, in its order.
  std::vector<Metric> metrics;
  /// Replayed statements, and those whose in-process rendering differed
  /// from the TCP reply to the same op.
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Replays `ops` (the TCP run's ops, in order, after the workload's
/// warm-up) on two fresh in-process stacks built like the served one:
///
///  * stack A calls ServerSession::Execute per op, untraced;
///  * stack B makes the calls ServerSession makes, in its order — Parse,
///    MoStore::Pin, the view copy on an epoch move, LowerSelect+Rewrite
///    on a plan-cache miss, ExecuteCompiledSelect with the cached fused
///    decision, QueryResult::ToString; for INSERTs AppendBatch split at
///    the appender callback — with a span around each call.
///
/// Then times the layers no statement isolates (a plain MdObject copy,
/// AggregateStream over the main grouping, ValidTimeslice at the
/// stream's ASOF dates). `tcp_ms` and `tcp_payloads` are the TCP run's
/// per-op latency and reply payload; every rendering is checked against
/// them. Prints the self time per layer, the tracing overhead and the
/// ROADMAP baseline table.
mddc::Result<ReplayOutcome> RunTracedReplay(
    const Workload& workload, const std::vector<Op>& ops,
    const std::vector<double>& tcp_ms,
    const std::vector<std::string>& tcp_payloads, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_REPLAY_H_
