#include "core/task_size_controller.h"

#include <gtest/gtest.h>

#include <cstdint>

/// Deterministic policy-arithmetic tests: the controller takes an injected
/// clock, so convergence behavior (multiplicative decrease, additive
/// increase, clamping, the throughput guard) is exercised without wall-time
/// sleeps. Engine-integration coverage lives in adaptive_task_size_test.cc.

namespace saber {
namespace {

constexpr size_t kTuple = 32;
constexpr int64_t kTargetNanos = 10'000'000;    // 10 ms
constexpr int64_t kIntervalNanos = 50'000'000;  // 50 ms

TaskSizeControllerOptions AimdOptions() {
  TaskSizeControllerOptions o;
  o.policy = TaskSizePolicy::kLatencyTargetAimd;
  o.latency_target_nanos = kTargetNanos;
  o.adjust_interval_nanos = kIntervalNanos;
  o.min_task_size = 4096;
  return o;
}

/// Drives one observation interval to a decision: records `latency` at the
/// current fake time, then advances past the interval and records it again
/// so the interval closes with `latency` as its maximum.
void CloseInterval(TaskSizeController& c, int64_t& now, int64_t latency) {
  c.Observe(latency);
  now += kIntervalNanos + 1;
  c.Observe(latency);
}

TEST(TaskSizeController, FixedPhiNeverAdjusts) {
  TaskSizeControllerOptions o;  // default policy: kFixedPhi
  int64_t now = 0;
  TaskSizeController c(o, 1 << 20, kTuple, nullptr, [&now] { return now; });
  for (int i = 0; i < 100; ++i) {
    c.Observe(1'000'000'000);  // 1 s: far above any target
    now += kIntervalNanos * 2;
  }
  EXPECT_EQ(c.phi(), size_t{1} << 20);
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.policy, TaskSizePolicy::kFixedPhi);
  EXPECT_EQ(stats.adjust_count, 0);
  EXPECT_EQ(stats.shrink_count, 0);
  EXPECT_EQ(stats.grow_count, 0);
  EXPECT_EQ(stats.clamp_events, 0);
  EXPECT_EQ(stats.observations, 100);
  EXPECT_EQ(stats.current_phi, size_t{1} << 20);
}

TEST(TaskSizeController, OvershootIsMultiplicativeDecrease) {
  int64_t now = 0;
  TaskSizeController c(AimdOptions(), 1 << 20, kTuple, nullptr,
                       [&now] { return now; });
  // Mild overshoot (target < max <= 2x target): phi halves.
  CloseInterval(c, now, kTargetNanos + 1);
  EXPECT_EQ(c.phi(), size_t{1} << 19);
  // Severe overshoot (> 2x target): phi quarters.
  CloseInterval(c, now, 2 * kTargetNanos + 1);
  EXPECT_EQ(c.phi(), size_t{1} << 17);
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.shrink_count, 2);
  EXPECT_EQ(stats.adjust_count, 2);
  EXPECT_EQ(stats.grow_count, 0);
}

TEST(TaskSizeController, SustainedHeadroomIsAdditiveIncrease) {
  int64_t now = 0;
  TaskSizeController c(AimdOptions(), 1 << 20, kTuple, nullptr,
                       [&now] { return now; });
  CloseInterval(c, now, 2 * kTargetNanos + 1);  // down to 256 KiB
  ASSERT_EQ(c.phi(), size_t{1} << 18);
  // Latencies below target/2 grow phi by 25% per interval (tuple-rounded).
  size_t expected = size_t{1} << 18;
  for (int i = 0; i < 4; ++i) {
    CloseInterval(c, now, kTargetNanos / 2 - 1);
    expected = (expected + expected / 4) / kTuple * kTuple;
    EXPECT_EQ(c.phi(), expected);
  }
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.grow_count, 4);
  EXPECT_EQ(stats.shrink_count, 1);
}

TEST(TaskSizeController, LatencyBetweenHalfAndFullTargetHoldsPhi) {
  int64_t now = 0;
  TaskSizeController c(AimdOptions(), 1 << 20, kTuple, nullptr,
                       [&now] { return now; });
  CloseInterval(c, now, kTargetNanos - 1);  // in the dead band
  CloseInterval(c, now, kTargetNanos / 2);  // still in the dead band
  EXPECT_EQ(c.phi(), size_t{1} << 20);
  EXPECT_EQ(c.Stats().adjust_count, 0);
}

TEST(TaskSizeController, NoAdjustmentBeforeIntervalElapses) {
  int64_t now = 0;
  TaskSizeController c(AimdOptions(), 1 << 20, kTuple, nullptr,
                       [&now] { return now; });
  for (int i = 0; i < 10; ++i) {
    c.Observe(100 * kTargetNanos);
    now += kIntervalNanos / 4;  // never lets a full interval elapse... almost
  }
  // 10 * interval/4 does cross the boundary twice; the point is that the
  // rapid-fire observations inside one interval trigger at most one decision
  // per elapsed interval, not one per observation.
  EXPECT_LE(c.Stats().adjust_count, 2);
  EXPECT_GE(c.phi(), (size_t{1} << 20) / 16);
}

TEST(TaskSizeController, ClampsAtFloorAndCountsClampEvents) {
  TaskSizeControllerOptions o = AimdOptions();
  o.min_task_size = 4096;
  int64_t now = 0;
  TaskSizeController c(o, 64 * 1024, kTuple, nullptr, [&now] { return now; });
  // 64 KiB -> 16 KiB -> 4 KiB hit the floor exactly (no clamp); the next
  // severe overshoot proposes 1 KiB and is clamped back to the floor.
  for (int i = 0; i < 4; ++i) CloseInterval(c, now, 3 * kTargetNanos);
  EXPECT_EQ(c.phi(), size_t{4096});
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.shrink_count, 2);
  EXPECT_GE(stats.clamp_events, 1);
}

TEST(TaskSizeController, ClampsAtConfiguredMax) {
  int64_t now = 0;
  TaskSizeController c(AimdOptions(), 1 << 20, kTuple, nullptr,
                       [&now] { return now; });
  CloseInterval(c, now, kTargetNanos + 1);  // 512 KiB
  ASSERT_EQ(c.phi(), size_t{1} << 19);
  const int64_t clamps_before = c.Stats().clamp_events;
  // Recovery: +25% per interval until the configured ceiling binds.
  for (int i = 0; i < 10; ++i) CloseInterval(c, now, 1);
  EXPECT_EQ(c.phi(), size_t{1} << 20);
  EXPECT_GT(c.Stats().clamp_events, clamps_before);
}

TEST(TaskSizeController, PhiStaysTupleMultiple) {
  TaskSizeControllerOptions o = AimdOptions();
  o.min_task_size = 5000;  // not a multiple of 48
  int64_t now = 0;
  TaskSizeController c(o, 100'000, 48, nullptr, [&now] { return now; });
  EXPECT_EQ(c.phi(), size_t{99984});  // 100000 rounded down to 48
  for (int i = 0; i < 12; ++i) {
    CloseInterval(c, now, i % 3 == 0 ? 3 * kTargetNanos : 1);
    EXPECT_EQ(c.phi() % 48, size_t{0});
    EXPECT_GE(c.phi(), size_t{5000} / 48 * 48);
    EXPECT_LE(c.phi(), size_t{99984});
  }
}

TEST(TaskSizeController, GuardRefusesShrinkPastOverheadWall) {
  TaskSizeControllerOptions o = AimdOptions();
  o.policy = TaskSizePolicy::kThroughputGuard;
  o.guard_max_task_rate = 10'000.0;
  int64_t now = 0;
  // Published rate equals the cap: any shrink projects past it, so the
  // proposal collapses back to the current phi.
  TaskSizeController c(o, 1 << 20, kTuple, [] { return 10'000.0; },
                       [&now] { return now; });
  CloseInterval(c, now, 3 * kTargetNanos);
  EXPECT_EQ(c.phi(), size_t{1} << 20);
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.shrink_count, 0);
  EXPECT_GE(stats.clamp_events, 1);
}

TEST(TaskSizeController, GuardPermitsPartialShrinkToTheWall) {
  TaskSizeControllerOptions o = AimdOptions();
  o.policy = TaskSizePolicy::kThroughputGuard;
  o.guard_max_task_rate = 10'000.0;
  int64_t now = 0;
  // Rate at half the cap: phi may halve (projected rate = cap) but not
  // quarter, so a severe overshoot's /4 proposal is clamped to /2.
  TaskSizeController c(o, 1 << 20, kTuple, [] { return 5'000.0; },
                       [&now] { return now; });
  CloseInterval(c, now, 3 * kTargetNanos);
  EXPECT_EQ(c.phi(), size_t{1} << 19);
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.shrink_count, 1);
  EXPECT_GE(stats.clamp_events, 1);
}

TEST(TaskSizeController, GuardWithoutRateDataActsLikeAimd) {
  TaskSizeControllerOptions o = AimdOptions();
  o.policy = TaskSizePolicy::kThroughputGuard;
  int64_t now = 0;
  TaskSizeController c(o, 1 << 20, kTuple, /*rate=*/nullptr,
                       [&now] { return now; });
  CloseInterval(c, now, 3 * kTargetNanos);
  EXPECT_EQ(c.phi(), size_t{1} << 18);  // unguarded /4
}

/// Records `latency` into the query histogram, then feeds it to the
/// controller, in the engine's order.
void Complete(obs::Histogram& h, TaskSizeController& c, int64_t latency) {
  h.Record(latency);
  c.Observe(latency);
}

TEST(TaskSizeController, StatsReportLastClosedInterval) {
  int64_t now = 0;
  obs::Histogram latency;
  TaskSizeController c(AimdOptions(), 1 << 20, kTuple, nullptr,
                       [&now] { return now; }, &latency);
  Complete(latency, c, 4'000'000);
  Complete(latency, c, 9'000'000);
  now += kIntervalNanos + 1;
  Complete(latency, c, 6'000'000);  // closes the interval: max 9 ms
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.last_window_max_nanos, 9'000'000);
  // The histogram is log-linear: p99 lands in 9 ms's bucket and is clamped
  // to the interval maximum.
  EXPECT_GT(stats.last_p99_nanos, 8'000'000);
  EXPECT_LE(stats.last_p99_nanos, 9'000'000);
  EXPECT_EQ(stats.observations, 3);
}

TEST(TaskSizeController, IntervalP99ExcludesEarlierIntervals) {
  int64_t now = 0;
  obs::Histogram latency;
  TaskSizeController c(AimdOptions(), 1 << 20, kTuple, nullptr,
                       [&now] { return now; }, &latency);
  // A long first interval of ~1 ms tasks...
  for (int i = 0; i < 2000; ++i) Complete(latency, c, 1'000'000 + i);
  now += kIntervalNanos + 1;
  Complete(latency, c, 1'000'000);  // closes it
  EXPECT_LT(c.Stats().last_p99_nanos, 1'100'000);
  // ...then a short one of ~9 ms tasks. Over the query's lifetime these are
  // under 1% of the values, so a p99 that did not subtract the first
  // interval would still report ~1 ms.
  for (int i = 0; i < 10; ++i) Complete(latency, c, 9'000'000 + i);
  now += kIntervalNanos + 1;
  Complete(latency, c, 9'000'000);  // closes it
  const ControllerStats stats = c.Stats();
  EXPECT_EQ(stats.last_window_max_nanos, 9'000'009);
  EXPECT_GT(stats.last_p99_nanos, 8'000'000);
  EXPECT_LE(stats.last_p99_nanos, 9'000'009);
  EXPECT_GT(latency.PercentileNanos(50), 900'000) << "lifetime view kept";
  EXPECT_LT(latency.PercentileNanos(50), 1'100'000);
}

TEST(TaskSizeController, FloorAboveCeilingIsCappedAtCeiling) {
  TaskSizeControllerOptions o = AimdOptions();
  o.min_task_size = 2 << 20;  // above the 1 MiB ceiling
  o.initial_task_size = 64 * 1024;
  int64_t now = 0;
  TaskSizeController c(o, 1 << 20, kTuple, nullptr, [&now] { return now; });
  // Floor collapses onto the ceiling: phi is pinned there regardless of the
  // initial value or any overshoot/headroom.
  EXPECT_EQ(c.phi(), size_t{1} << 20);
  CloseInterval(c, now, 3 * kTargetNanos);
  EXPECT_EQ(c.phi(), size_t{1} << 20);
  CloseInterval(c, now, 1);
  EXPECT_EQ(c.phi(), size_t{1} << 20);
}

TEST(TaskSizeController, InitialTaskSizeStartsBelowCeiling) {
  TaskSizeControllerOptions o = AimdOptions();
  o.initial_task_size = 256 * 1024;
  int64_t now = 0;
  TaskSizeController c(o, 1 << 20, kTuple, nullptr, [&now] { return now; });
  EXPECT_EQ(c.phi(), size_t{256} * 1024);
  // Growth still honors the configured ceiling.
  for (int i = 0; i < 10; ++i) CloseInterval(c, now, 1);
  EXPECT_EQ(c.phi(), size_t{1} << 20);
  // The fixed policy ignores the field: phi is pinned to the ceiling.
  o.policy = TaskSizePolicy::kFixedPhi;
  TaskSizeController fixed(o, 1 << 20, kTuple, nullptr, [&now] { return now; });
  EXPECT_EQ(fixed.phi(), size_t{1} << 20);
}

TEST(TaskSizeController, PolicyNamesRoundTrip) {
  for (TaskSizePolicy p :
       {TaskSizePolicy::kFixedPhi, TaskSizePolicy::kLatencyTargetAimd,
        TaskSizePolicy::kThroughputGuard}) {
    TaskSizePolicy parsed;
    ASSERT_TRUE(TaskSizeController::ParsePolicy(
        TaskSizeController::PolicyName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  TaskSizePolicy unused;
  EXPECT_FALSE(TaskSizeController::ParsePolicy("nonsense", &unused));
}

}  // namespace
}  // namespace saber
