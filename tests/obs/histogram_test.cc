#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/strcat.h"

/// \file histogram_test.cc
/// The log-linear latency histogram: summary statistics, percentile
/// accuracy and clamping, the windowed percentile the task-size controller
/// reads, and the exactness of the Prometheus `_bucket` counts derived from
/// its layout.

namespace saber::obs {
namespace {

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 1000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.max_nanos(), 100000);
  EXPECT_NEAR(h.mean_nanos(), 50500.0, 1.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBracketed) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.Record(i);
  const int64_t p50 = h.PercentileNanos(50);
  const int64_t p90 = h.PercentileNanos(90);
  const int64_t p99 = h.PercentileNanos(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log-linear buckets: relative error bounded by one sub-bucket (1/16).
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 5000.0 / 8);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 9900.0 / 8);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max_nanos(), 0);
  EXPECT_EQ(h.sum(), 0);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  const int64_t hour_nanos = 3600LL * 1000000000LL;
  h.Record(hour_nanos);
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.PercentileNanos(100), hour_nanos / 2);
}

TEST(Histogram, PercentileNeverExceedsObservedMax) {
  // Regression: a log-linear bucket's upper bound can exceed every value
  // recorded into it, so an unclamped percentile reported p100 > max.
  Histogram h;
  h.Record(1'000'003);  // strictly inside a bucket
  EXPECT_EQ(h.PercentileNanos(100), h.max_nanos());
  EXPECT_LE(h.PercentileNanos(99), h.max_nanos());
  EXPECT_LE(h.PercentileNanos(50), h.max_nanos());

  // A spread of awkward values: every percentile stays within [0, max].
  Histogram g;
  for (int64_t v : {17LL, 1234567LL, 89LL, 4096LL, 999999937LL}) {
    g.Record(v);
  }
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_GE(g.PercentileNanos(p), 0);
    EXPECT_LE(g.PercentileNanos(p), g.max_nanos()) << "p=" << p;
  }
}

TEST(Histogram, WindowPercentileSeesOnlyTheWindow) {
  Histogram h;
  Histogram::Counts since;
  for (int i = 0; i < 1000; ++i) h.Record(1'000'000);
  const int64_t first = h.WindowPercentileNanos(99, &since);
  EXPECT_GE(first, 1'000'000);
  EXPECT_LE(first, 1'000'000 + 1'000'000 / 16);
  // One slow value among many fast ones in the lifetime view, but the only
  // value in the second window.
  h.Record(9'000'000);
  const int64_t p99 = h.WindowPercentileNanos(99, &since);
  EXPECT_GE(p99, 9'000'000);
  EXPECT_LE(p99, 9'000'000 + 9'000'000 / 16);
  EXPECT_EQ(h.WindowPercentileNanos(99, &since), 0) << "empty window";
}

TEST(Histogram, ExpositionEdgesCloseBuckets) {
  const std::vector<int64_t>& edges = Histogram::ExpositionBounds();
  ASSERT_FALSE(edges.empty());
  EXPECT_LE(edges.front(), 100'000) << "must resolve 100 us";
  EXPECT_GE(edges.back(), 5'000'000'000) << "must resolve 5 s";
  EXPECT_LE(edges.size() + 1, 24u) << "bucket lines per series";
  // Every edge is some bucket's upper bound, so a cumulative count at an
  // edge never splits a bucket.
  for (int64_t edge : edges) {
    bool closes = false;
    for (size_t b = 0; b < Histogram::kBuckets && !closes; ++b) {
      closes = Histogram::BucketUpperBound(b) == edge;
    }
    EXPECT_TRUE(closes) << "edge " << edge;
  }
}

/// The value of `series` in a rendered exposition, or -1 if absent.
int64_t RenderedValue(const std::string& text, const std::string& series) {
  const size_t at = text.find(series + " ");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + series.size() + 1));
}

TEST(Histogram, RenderedBucketsCountValuesAtOrBelowEachEdge) {
  std::mt19937_64 rng(20240613);
  // Log-uniform over 1 ns .. ~68 s, so every edge has values on both sides
  // and some land exactly on an edge or past the last one.
  std::uniform_real_distribution<double> log2ns(0.0, 36.0);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<int64_t>(std::exp2(log2ns(rng))));
  }
  for (int64_t edge : Histogram::ExpositionBounds()) {
    values.push_back(edge);
    values.push_back(edge + 1);
  }
  Histogram h;
  for (int64_t v : values) h.Record(v);

  MetricsRegistry reg;
  const int owner = 0;
  reg.RegisterHistogram("saber_test_lat_nanos", {}, &h, &owner);
  const std::string text = RenderPrometheusText(reg.Snapshot());
  for (int64_t edge : Histogram::ExpositionBounds()) {
    const int64_t want = std::count_if(
        values.begin(), values.end(), [edge](int64_t v) { return v <= edge; });
    EXPECT_EQ(RenderedValue(text, StrCat("saber_test_lat_nanos_bucket{le=\"",
                                         edge, "\"}")),
              want)
        << "le=" << edge;
  }
  EXPECT_EQ(RenderedValue(text, "saber_test_lat_nanos_bucket{le=\"+Inf\"}"),
            static_cast<int64_t>(values.size()));
  EXPECT_EQ(RenderedValue(text, "saber_test_lat_nanos_count"),
            static_cast<int64_t>(values.size()));
  reg.Unregister(&owner);
}

}  // namespace
}  // namespace saber::obs
