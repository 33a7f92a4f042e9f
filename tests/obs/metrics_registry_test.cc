#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

/// \file metrics_registry_test.cc
/// The unified metrics registry: get-or-create identity and label dedup,
/// exact counting under concurrent increments, histogram bucket boundary
/// semantics, the external-instrument register/unregister/repoint lifecycle,
/// collectors, snapshots under registration churn, and the two formatters
/// (Prometheus text exposition, human summary).

namespace saber::obs {
namespace {

/// The value of series `labels` in family `name`, or -1 if absent.
int64_t CounterIn(const MetricsSnapshot& snap, const std::string& name,
                  const Labels& labels = {}) {
  for (const auto& f : snap.families) {
    if (f.name != name) continue;
    for (const auto& s : f.series) {
      if (s.labels == labels) return s.counter_value;
    }
  }
  return -1;
}

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("saber_test_a_total", {{"q", "0"}});
  Counter* same = reg.GetCounter("saber_test_a_total", {{"q", "0"}});
  Counter* other_labels = reg.GetCounter("saber_test_a_total", {{"q", "1"}});
  Counter* other_name = reg.GetCounter("saber_test_b_total", {{"q", "0"}});
  EXPECT_EQ(a, same) << "same (name, labels) must dedup to one instrument";
  EXPECT_NE(a, other_labels);
  EXPECT_NE(a, other_name);

  a->Increment(5);
  other_labels->Increment(7);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(CounterIn(snap, "saber_test_a_total", {{"q", "0"}}), 5);
  EXPECT_EQ(CounterIn(snap, "saber_test_a_total", {{"q", "1"}}), 7);
  EXPECT_EQ(CounterIn(snap, "saber_test_b_total", {{"q", "0"}}), 0);
}

TEST(MetricsRegistry, LabelOrderIsPartOfSeriesIdentity) {
  // Labels are an ordered vector by design (registration order is the
  // exposition order); callers use a consistent order per name.
  MetricsRegistry reg;
  Counter* ab = reg.GetCounter("saber_test_total", {{"a", "1"}, {"b", "2"}});
  Counter* ba = reg.GetCounter("saber_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_NE(ab, ba);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("saber_test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), int64_t{kThreads} * kPerThread)
      << "a relaxed fetch_add must still never lose an increment";
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  // The exposition edges are inclusive: a value on an edge counts under it,
  // one past it under the next edge.
  const std::vector<int64_t>& edges = Histogram::ExpositionBounds();
  Histogram h;
  h.Record(-5);        // clamps to 0 -> first bucket
  h.Record(edges[0]);  // the edge is inclusive
  h.Record(edges[0] + 1);
  h.Record(edges[1]);
  h.Record(edges.back() + 1);  // past the last edge -> +Inf bucket
  MetricsRegistry reg;
  const int owner = 0;
  reg.RegisterHistogram("saber_test_lat_nanos", {}, &h, &owner);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.families.size(), 1u);
  const FamilySnapshot& f = snap.families[0];
  EXPECT_EQ(f.bounds, edges);
  ASSERT_EQ(f.series.size(), 1u);
  const SeriesSnapshot& s = f.series[0];
  ASSERT_EQ(s.bucket_counts.size(), edges.size() + 1);
  EXPECT_EQ(s.bucket_counts[0], 2);
  EXPECT_EQ(s.bucket_counts[1], 2);
  EXPECT_EQ(s.bucket_counts.back(), 1);
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.sum, 0 + edges[0] + edges[0] + 1 + edges[1] + edges.back() + 1);
  EXPECT_EQ(h.count(), 5);
  reg.Unregister(&owner);
}

TEST(MetricsRegistry, HistogramFamilyRejectsNothingAndSnapshotsCumulate) {
  MetricsRegistry reg;
  const int owner = 0;
  Histogram h;
  reg.RegisterHistogram("saber_test_lat_nanos", {{"q", "0"}}, &h, &owner);
  h.Record(50);
  h.Record(500'000);
  h.Record(50'000'000'000);  // 50 s: past the last edge
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.families.size(), 1u);
  const FamilySnapshot& f = snap.families[0];
  EXPECT_EQ(f.type, MetricType::kHistogram);
  ASSERT_EQ(f.series.size(), 1u);
  EXPECT_EQ(f.series[0].count, 3);
  EXPECT_EQ(f.series[0].sum, 50'000'500'050);

  // The text exposition renders cumulative buckets plus _sum/_count: 50 ns
  // is under every edge, 500 us under 2^19 - 1 and above 2^18 - 1, 50 s
  // only under +Inf.
  const std::string text = RenderPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE saber_test_lat_nanos histogram"),
            std::string::npos);
  EXPECT_NE(text.find("saber_test_lat_nanos_bucket{q=\"0\",le=\"8191\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("saber_test_lat_nanos_bucket{q=\"0\",le=\"262143\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("saber_test_lat_nanos_bucket{q=\"0\",le=\"524287\"} 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("saber_test_lat_nanos_bucket{q=\"0\",le=\"8589934591\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("saber_test_lat_nanos_bucket{q=\"0\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("saber_test_lat_nanos_sum{q=\"0\"} 50000500050"),
            std::string::npos);
  EXPECT_NE(text.find("saber_test_lat_nanos_count{q=\"0\"} 3"),
            std::string::npos);
  reg.Unregister(&owner);
}

TEST(MetricsRegistry, ExternalInstrumentRegisterUnregisterRepoint) {
  MetricsRegistry reg;
  const int owner_a = 0, owner_b = 0;  // distinct addresses as owner tags

  Counter first;
  first.Increment(41);
  reg.RegisterCounter("saber_test_ext_total", {{"slot", "3"}}, &first,
                      &owner_a, "externally owned");
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_ext_total",
                      {{"slot", "3"}}),
            41)
      << "the snapshot must read the owner's storage, not a copy";

  // Slot recycling: a new owner re-registers the same (name, labels); the
  // series repoints and the wire sees an ordinary counter reset.
  Counter second;
  second.Increment(7);
  reg.RegisterCounter("saber_test_ext_total", {{"slot", "3"}}, &second,
                      &owner_b);
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_ext_total",
                      {{"slot", "3"}}),
            7);

  // Unregister by owner drops the series (the instrument may now die).
  reg.Unregister(&owner_b);
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_ext_total",
                      {{"slot", "3"}}),
            -1);
  // Unregistering the stale owner was already a no-op for this series.
  reg.Unregister(&owner_a);
}

TEST(MetricsRegistry, UnregisterDropsOnlyTheOwnersSeriesAndCollectors) {
  MetricsRegistry reg;
  const int owner = 0;
  Counter mine;
  reg.RegisterCounter("saber_test_mine_total", {}, &mine, &owner);
  reg.GetCounter("saber_test_owned_total")->Increment(3);
  std::atomic<int> collector_runs{0};
  reg.AddCollector([&collector_runs] { collector_runs.fetch_add(1); },
                   &owner);

  (void)reg.Snapshot();
  EXPECT_EQ(collector_runs.load(), 1);

  reg.Unregister(&owner);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(collector_runs.load(), 1) << "the owner's collector must be gone";
  EXPECT_EQ(CounterIn(snap, "saber_test_mine_total"), -1);
  EXPECT_EQ(CounterIn(snap, "saber_test_owned_total"), 3)
      << "registry-owned instruments survive every Unregister";
}

TEST(MetricsRegistry, CollectorsFoldLazyValuesBeforeTheRead) {
  MetricsRegistry reg;
  std::atomic<int64_t> external_source{0};
  reg.AddCollector([&reg, &external_source] {
    reg.GetCounter("saber_test_folded_total")
        ->StoreForCollector(external_source.load());
    reg.GetGauge("saber_test_depth")->Set(42.0);
  });
  external_source.store(17);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(CounterIn(snap, "saber_test_folded_total"), 17);
  external_source.store(23);
  snap = reg.Snapshot();
  EXPECT_EQ(CounterIn(snap, "saber_test_folded_total"), 23);
  bool gauge_seen = false;
  for (const auto& f : snap.families) {
    if (f.name == "saber_test_depth") {
      gauge_seen = true;
      EXPECT_EQ(f.series[0].gauge_value, 42.0);
    }
  }
  EXPECT_TRUE(gauge_seen);
}

TEST(MetricsRegistry, SnapshotUnderRegistrationChurnStaysMonotone) {
  // Writers keep incrementing and registering fresh series while a reader
  // snapshots: no crash, and every established counter is monotone across
  // successive snapshots (the per-family single-pass contract).
  MetricsRegistry reg;
  Counter* stable = reg.GetCounter("saber_test_stable_total");
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int i = 0; !stop.load(); ++i) {
      stable->Increment();
      reg.GetCounter("saber_test_churn_total",
                     {{"i", std::to_string(i % 64)}})
          ->Increment();
    }
  });
  int64_t last = -1;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = reg.Snapshot();
    const int64_t v = CounterIn(snap, "saber_test_stable_total");
    EXPECT_GE(v, last);
    last = v;
  }
  stop.store(true);
  churn.join();
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_stable_total"),
            stable->value());
}

TEST(MetricsRegistry, PrometheusTextEscapesLabelValuesAndEmitsHelp) {
  MetricsRegistry reg;
  reg.GetCounter("saber_test_esc_total", {{"name", "a\"b\\c\nd"}},
                 "counts \\ things")
      ->Increment(2);
  const std::string text = RenderPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# HELP saber_test_esc_total counts \\\\ things"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE saber_test_esc_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("saber_test_esc_total{name=\"a\\\"b\\\\c\\nd\"} 2"),
      std::string::npos)
      << text;
}

TEST(MetricsRegistry, SummaryElidesAllZeroFamiliesButNotSiblings) {
  MetricsRegistry reg;
  reg.GetCounter("saber_test_quiet_total");  // never incremented
  reg.GetCounter("saber_test_loud_total", {{"k", "a"}})->Increment(9);
  reg.GetCounter("saber_test_loud_total", {{"k", "b"}});  // zero sibling
  const std::string out = FormatMetricsSummary(reg.Snapshot(), ">> ");
  EXPECT_EQ(out.find("saber_test_quiet_total"), std::string::npos)
      << "an all-zero family must not clutter the summary";
  EXPECT_NE(out.find(">> saber_test_loud_total{k=\"a\"} 9"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(">> saber_test_loud_total{k=\"b\"} 0"),
            std::string::npos)
      << "a zero series stays visible when a sibling fired";
}

}  // namespace
}  // namespace saber::obs
