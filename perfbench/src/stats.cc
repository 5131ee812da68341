#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double fraction) {
  if (samples.empty()) return 0.0;
  fraction = std::clamp(fraction, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(fraction * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary summary;
  summary.count = samples.size();
  summary.p50 = Median(samples);
  summary.p90 = Percentile(samples, 0.9);
  summary.beyond_p90 = static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(),
      [&](double sample) { return sample > summary.p90; }));
  return summary;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 ||
        static_cast<std::size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t start = std::max(span.start_ns, parent.start_ns);
    const std::int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : intervals) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> SelfTimeByLayer(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, std::int64_t> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[LayerOf(spans[i].name)] += self[i];
  }
  return by_layer;
}

}  // namespace perfbench
