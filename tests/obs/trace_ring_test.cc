#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

/// \file trace_ring_test.cc
/// The task-path trace ring: push/drain ordering, bounded memory under
/// overrun, seqlock consistency under concurrent writers, the sampling
/// decision at the rate extremes, and the Chrome trace_event rendering of
/// the six pipeline stages.

namespace saber::obs {
namespace {

TaskSpan MakeSpan(int64_t id) {
  TaskSpan s;
  s.task_id = id;
  s.query_index = 1;
  s.bytes = id * 100;
  s.insert_nanos = 1000 + id;
  s.create_nanos = 2000 + id;
  s.queued_nanos = 3000 + id;
  s.select_nanos = 4000 + id;
  s.exec_end_nanos = 5000 + id;
  s.sink_begin_nanos = 6000 + id;
  s.done_nanos = 7000 + id;
  return s;
}

TEST(TraceRing, DrainReturnsSpansOldestFirst) {
  TraceRing ring(1.0, 16);
  for (int64_t i = 0; i < 5; ++i) ring.Push(MakeSpan(i));
  const std::vector<TaskSpan> spans = ring.Drain();
  ASSERT_EQ(spans.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(spans[i].task_id, i);
  EXPECT_EQ(ring.total_pushed(), 5);
}

TEST(TraceRing, OverrunKeepsTheNewestCapacitySpans) {
  TraceRing ring(1.0, 4);
  for (int64_t i = 0; i < 10; ++i) ring.Push(MakeSpan(i));
  EXPECT_EQ(ring.capacity(), 4u) << "the ring must never grow";
  const std::vector<TaskSpan> spans = ring.Drain();
  ASSERT_EQ(spans.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].task_id, 6 + i);
  EXPECT_EQ(ring.total_pushed(), 10)
      << "total_pushed surfaces the overwrite so dumps read as partial";
}

TEST(TraceRing, SampleRateZeroNeverSamplesAndOneAlwaysDoes) {
  TraceRing off(0.0, 4);
  TraceRing always(1.0, 4);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(off.Sample());
    EXPECT_TRUE(always.Sample());
  }
}

TEST(TraceRing, IntermediateSampleRateIsRoughlyProportional) {
  TraceRing ring(0.25, 4);
  int sampled = 0;
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) sampled += ring.Sample() ? 1 : 0;
  // A generous band: the xorshift stream is deterministic per thread, so
  // this is a sanity bound, not a statistical test.
  EXPECT_GT(sampled, kTrials / 8);
  EXPECT_LT(sampled, kTrials / 2);
}

/// Spans are self-consistent (every stage = base + id); a torn read mixes
/// two spans and breaks that invariant. The seqlock must never let one out.
void PushConcurrentlyAndCheckNoTornSpan(size_t capacity, int writers,
                                        int per_writer) {
  TraceRing ring(1.0, capacity);
  std::atomic<bool> stop{false};
  int64_t drained = 0, torn = 0;
  auto check = [&](const std::vector<TaskSpan>& spans) {
    for (const TaskSpan& s : spans) {
      ++drained;
      if (s.create_nanos != s.insert_nanos + 1000 ||
          s.done_nanos != s.insert_nanos + 6000 || s.bytes != s.task_id * 100) {
        ++torn;
      }
    }
  };
  std::thread reader([&] {
    while (!stop.load()) check(ring.Drain());
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&ring, t, per_writer] {
      for (int64_t i = 0; i < per_writer; ++i) {
        ring.Push(MakeSpan(t * per_writer + i));
      }
    });
  }
  for (auto& w : threads) w.join();
  stop.store(true);
  reader.join();
  check(ring.Drain());
  EXPECT_EQ(torn, 0) << "of " << drained << " drained spans";
  EXPECT_EQ(ring.total_pushed(), int64_t{writers} * per_writer);
}

TEST(TraceRing, ConcurrentPushersNeverTearASpan) {
  PushConcurrentlyAndCheckNoTornSpan(/*capacity=*/64, /*writers=*/4,
                                     /*per_writer=*/20'000);
}

TEST(TraceRing, ConcurrentPushersOnOneSlotNeverTearASpan) {
  // Every push laps onto the same slot, so writers overlap on nearly every
  // store window: the case where two writers' version bumps used to leave
  // the slot even while both were still copying.
  PushConcurrentlyAndCheckNoTornSpan(/*capacity=*/1, /*writers=*/3,
                                     /*per_writer=*/20'000);
}

TEST(TraceRender, EmitsSixStagesPerCompleteSpan) {
  const std::string json = RenderChromeTrace({MakeSpan(7)});
  for (const char* stage :
       {"insert", "dispatch", "queue-wait", "execute", "assembly", "sink"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + stage + "\""),
              std::string::npos)
        << "missing stage " << stage << " in:\n"
        << json;
  }
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos)
      << "rows are keyed by query slot";
  EXPECT_NE(json.find("\"task\":7"), std::string::npos);
}

TEST(TraceRender, SkipsUnstampedOrBackwardStages) {
  TaskSpan s = MakeSpan(1);
  s.insert_nanos = 0;                      // unstamped -> no insert event
  s.sink_begin_nanos = s.done_nanos + 1;   // backwards -> no sink event
  const std::string json = RenderChromeTrace({s});
  EXPECT_EQ(json.find("\"name\":\"insert\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"sink\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
}

TEST(TraceRender, FileDumpCarriesRingMetadata) {
  TraceRing ring(0.5, 8);
  for (int64_t i = 0; i < 3; ++i) ring.Push(MakeSpan(i));
  const std::string path = ::testing::TempDir() + "trace_ring_test.json";
  ASSERT_TRUE(WriteChromeTraceFile(&ring, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  // std::to_string-style fixed formatting (see runtime/strcat.h).
  EXPECT_NE(content.find("\"sampleRate\":\"0.500000\""), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"spansRetained\":\"3\""), std::string::npos);
  EXPECT_NE(content.find("\"spansTotal\":\"3\""), std::string::npos);
}

}  // namespace
}  // namespace saber::obs
