#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's arithmetic: latency summaries, ratios with an explicit
// empty-denominator rule, and span self time. Kept free of the mddc
// library so tests/stats_test.cc checks it in isolation.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile of `samples` (unsorted, copied): the smallest
/// sample such that at least `fraction` of all samples are <= it.
/// `fraction` is clamped to [0, 1]; 0 samples give 0.
double Percentile(std::vector<double> samples, double fraction);

/// Percentile(samples, 0.5).
double Median(const std::vector<double>& samples);

/// numerator / denominator, or 0 when the denominator is 0 (a counter
/// ratio over an empty set of attempts).
double Ratio(double numerator, double denominator);

/// Median and 90th percentile of one latency sample set, with the number
/// of samples they rest on.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  /// Samples strictly above p90: the guide asks for a percentile with at
  /// least ten samples beyond it.
  std::size_t beyond_p90 = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// One recorded span. Times are nanoseconds on one steady clock; `parent`
/// indexes the enclosing span in the same vector, or is -1 for a root.
/// Spans of one benchmark operation share `op`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

/// The layer a span belongs to: its name up to the first '.', so
/// "mdql.parse" is in layer "mdql".
std::string LayerOf(const std::string& span_name);

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// children clipped to the parent). Returned in span order, nanoseconds.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per layer (LayerOf), nanoseconds.
std::map<std::string, std::int64_t> SelfTimeByLayer(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
