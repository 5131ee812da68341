// Unit tests of the benchmark's percentile, ratio and self-time
// arithmetic (perfbench/src/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOnUnsortedSamples) {
  const std::vector<double> samples = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.5), 3);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.9), 5);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.2), 1);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.21), 2);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(samples, 1.0), 5);
}

TEST(PercentileTest, MedianOfEvenCountIsTheLowerMiddle) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2);
}

TEST(PercentileTest, EmptyAndOutOfRange) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.5), 7);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, -1.0), 1);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 2.0), 2);
}

TEST(PercentileTest, P90OfAHundredLeavesTenBeyond) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const LatencySummary summary = Summarize(samples);
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.p50, 50);
  EXPECT_DOUBLE_EQ(summary.p90, 90);
  EXPECT_EQ(summary.beyond_p90, 10u);
}

TEST(RatioTest, EmptyDenominatorIsZero) {
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(Ratio(0, 0), 0);
  EXPECT_DOUBLE_EQ(Ratio(5, 0), 0);
}

TEST(SelfTimeTest, ChildrenAreSubtractedFromTheirParentOnly) {
  // root [0,100) > a [10,30) > a1 [12,20); root > b [40,90).
  const std::vector<Span> spans = {
      {"serve.op", 0, 100, -1, 1},      {"mdql.parse", 10, 30, 0, 1},
      {"mdql.lex", 12, 20, 1, 1},       {"mdql.execute", 40, 90, 0, 1},
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<std::int64_t>{30, 12, 8, 50}));
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndAreClipped) {
  // Children [10,50) and [30,60) overlap; [90,120) sticks out of the
  // parent [0,100). Covered: [10,60) + [90,100) = 60.
  const std::vector<Span> spans = {
      {"serve.op", 0, 100, -1, 1},
      {"core.a", 10, 50, 0, 1},
      {"core.b", 30, 60, 0, 1},
      {"core.c", 90, 120, 0, 1},
  };
  EXPECT_EQ(SelfTimes(spans)[0], 40);
}

TEST(SelfTimeTest, ByLayerSumsSelfTimeUnderTheNamePrefix) {
  const std::vector<Span> spans = {
      {"serve.op", 0, 100, -1, 1},    {"mdql.parse", 0, 10, 0, 1},
      {"mdql.execute", 10, 70, 0, 1}, {"serve.pin", 70, 75, 0, 1},
      {"core.mo_copy", 200, 230, -1, 2},
  };
  const auto by_layer = SelfTimeByLayer(spans);
  EXPECT_EQ(by_layer.at("serve"), 25 + 5);
  EXPECT_EQ(by_layer.at("mdql"), 70);
  EXPECT_EQ(by_layer.at("core"), 30);
  EXPECT_EQ(LayerOf("algebra.stream"), "algebra");
  EXPECT_EQ(LayerOf("plain"), "plain");
}

}  // namespace
}  // namespace perfbench
