#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

// Set-up shared by the TCP run and the traced replay: publishing the
// workload's MO with its warm pre-aggregates, and the coverage counters
// read back from ServerSession and MoStore stats.

#include <map>
#include <string>

#include "common/result.h"
#include "serve/mo_store.h"
#include "workloads.h"

namespace perfbench {

/// Generates the workload's MO, publishes it in `store` and registers the
/// warm pre-aggregates of its warm statements.
mddc::Status PublishWorkload(const Workload& workload,
                             mddc::serve::MoStore& store);

/// Session counters the coverage report and the per-layer ratios use,
/// keyed by their SessionStats / ExecStats JSON names (kCounterKeys).
using Counters = std::map<std::string, double>;

/// Adds `other` into `into`, key by key.
void AddCounters(Counters& into, const Counters& other);

/// `now` minus `base`, key by key.
Counters Delta(const Counters& now, const Counters& base);

/// Reads every kCounterKeys counter out of SessionStats::ToJson() text,
/// which is what ".stats" returns over the wire.
Counters ParseSessionStats(const std::string& json);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
