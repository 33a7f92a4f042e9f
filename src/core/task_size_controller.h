#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "obs/metrics.h"

/// \file task_size_controller.h
/// Adaptive task sizing as a first-class, per-query controller (extension;
/// cf. Das et al. [25], contrasted in §7 of the paper). SABER's query task
/// size φ sets the central trade-off of §6.4 (Fig. 12): large tasks amortize
/// per-task dispatch/scheduling cost (throughput), small tasks shorten the
/// accumulate-execute-assemble path (latency). The controller owns the live
/// per-query φ and re-tunes it from the observed end-to-end task latencies,
/// under one of three policies:
///
///  - kFixedPhi           φ never changes (the paper's configuration).
///  - kLatencyTargetAimd  AIMD against a latency target: multiplicative
///                        decrease on overshoot (÷2, or ÷4 for > 2× target,
///                        like the fixed-point batch-size iteration of [25]),
///                        additive increase (+25%) while the interval stays
///                        below half the target.
///  - kThroughputGuard    AIMD plus a throughput floor: a shrink is clamped
///                        so the projected per-processor task rate stays
///                        below `guard_max_task_rate`. Past that rate the
///                        per-task dispatch overhead dominates the latency,
///                        so shrinking φ further burns throughput without
///                        buying latency (the steep left edge of Fig. 12a).
///
/// Threading: `Observe` is invoked from the result stage while the caller
/// holds the per-query assembly token, so observations are serialized (but
/// arrive from different worker threads — all mutable state read elsewhere
/// is atomic). `phi()` and `Stats()` are safe to call from any thread at
/// any time.
///
/// The clock is injected so convergence is unit-testable without wall-time
/// sleeps (see tests/core/task_size_controller_test.cc); the engine passes
/// the default monotonic clock.

namespace saber {

enum class TaskSizePolicy {
  kFixedPhi,
  kLatencyTargetAimd,
  kThroughputGuard,
};

/// Knobs for the controller, embedded in EngineOptions as `task_sizing`.
struct TaskSizeControllerOptions {
  /// Which policy owns φ. kFixedPhi disables adjustment entirely.
  TaskSizePolicy policy = TaskSizePolicy::kFixedPhi;

  /// [aimd, guard] End-to-end task latency target in nanoseconds
  /// (dispatch → output emission). The interval *maximum* is compared
  /// against it: > target shrinks φ, < target/2 grows φ. Default 10 ms.
  int64_t latency_target_nanos = 10'000'000;

  /// [aimd, guard] Floor for the adaptive φ in bytes (rounded down to a
  /// multiple of the query's input tuple size, min one tuple). Default 4 KiB.
  size_t min_task_size = 4096;

  /// [aimd, guard] Starting φ in bytes; 0 starts at the ceiling
  /// (EngineOptions::task_size). A conservative start makes the controller
  /// probe *upward* — additive growth until the target binds — instead of
  /// paying the large-φ latency transient while it shrinks into place.
  /// Clamped into [min_task_size, task_size]. Default 0.
  size_t initial_task_size = 0;

  /// [aimd, guard] Minimum time between φ adjustments in nanoseconds; all
  /// latencies observed within one interval feed a single decision.
  /// Default 50 ms.
  int64_t adjust_interval_nanos = 50'000'000;

  /// [guard] Per-processor task rate (tasks/second) past which dispatch
  /// overhead is taken to dominate: shrinks are clamped so the projected
  /// rate `current_rate * phi_old / phi_new` stays below this. The default
  /// models ~50 µs of dispatch/scheduling cost per task. Ignored when the
  /// throughput matrix has published no rate yet.
  double guard_max_task_rate = 20'000.0;
};

/// Point-in-time snapshot of one query's controller, surfaced through
/// `QueryHandle::controller_stats()` and printed by saber_cli.
struct ControllerStats {
  TaskSizePolicy policy = TaskSizePolicy::kFixedPhi;
  /// Live φ in bytes (a multiple of the input tuple size).
  size_t current_phi = 0;
  /// Total latency observations fed to the controller.
  int64_t observations = 0;
  /// φ changes applied (shrinks + grows).
  int64_t adjust_count = 0;
  int64_t shrink_count = 0;
  int64_t grow_count = 0;
  /// Times a proposed φ was limited by min/max bounds or the throughput
  /// guard (the proposal may still have moved φ part of the way).
  int64_t clamp_events = 0;
  /// p99 of the task latencies in the last *closed* observation interval,
  /// in nanoseconds (0 until the first interval closes).
  int64_t last_p99_nanos = 0;
  /// Maximum latency in the last closed interval — the value the AIMD
  /// decision actually compared against the target.
  int64_t last_window_max_nanos = 0;
};

class TaskSizeController {
 public:
  /// Monotonic nanosecond clock; injectable for deterministic tests.
  using ClockFn = std::function<int64_t()>;
  /// Best currently-published task rate (tasks/s) for this query across
  /// processors, or 0 when unknown. Only consulted by kThroughputGuard.
  using RateFn = std::function<double()>;

  /// `max_task_size` is the configured φ ceiling (EngineOptions::task_size);
  /// `tuple_size` is the query's input-stream tuple size — every φ the
  /// controller publishes is a non-zero multiple of it. A null `clock`
  /// falls back to the monotonic wall clock; a null `rate` pins the
  /// throughput guard open (no rate data, no clamping). `latency` is the
  /// query's task-latency histogram, recorded into before each Observe; the
  /// controller only reads it, for `last_p99_nanos` (0 when null).
  TaskSizeController(const TaskSizeControllerOptions& options,
                     size_t max_task_size, size_t tuple_size,
                     RateFn rate = nullptr, ClockFn clock = nullptr,
                     const obs::Histogram* latency = nullptr);

  TaskSizeController(const TaskSizeController&) = delete;
  TaskSizeController& operator=(const TaskSizeController&) = delete;

  /// The live φ in bytes. Read by the dispatching stage on every task-cut
  /// decision; a single relaxed atomic load.
  size_t phi() const { return phi_.load(std::memory_order_relaxed); }

  /// Feeds one end-to-end task latency (dispatch → output emission). Folds
  /// it into the current observation interval and, once
  /// `adjust_interval_nanos` has elapsed, closes the interval and lets the
  /// policy re-decide φ. Caller holds the per-query assembly token.
  void Observe(int64_t latency_nanos);

  ControllerStats Stats() const;

  /// Publishes this controller's monotone counters as external series on
  /// `registry` under `labels` (saber_controller_*_total). Gauges derived
  /// from Stats() — φ, last-interval p99 — are the engine collector's job.
  /// The caller owns the unregistration contract tied to `owner`.
  void RegisterMetrics(obs::MetricsRegistry* registry, const obs::Labels& labels,
                       const void* owner) const;

  const TaskSizeControllerOptions& options() const { return options_; }

  /// "fixed" / "aimd" / "guard" (stable names, used by saber_cli and the
  /// adaptive bench's JSON records).
  static const char* PolicyName(TaskSizePolicy policy);
  /// Inverse of PolicyName; returns false on an unknown name.
  static bool ParsePolicy(const char* name, TaskSizePolicy* out);

 private:
  /// Closes the interval [last adjust, now): applies the AIMD decision to
  /// `window_max` and publishes a new φ. Single claimant per interval.
  void Adjust(int64_t window_max);
  size_t RoundToTuple(size_t bytes) const;

  const TaskSizeControllerOptions options_;
  const size_t max_task_size_;  // tuple-rounded ceiling
  const size_t min_task_size_;  // tuple-rounded floor
  const size_t tuple_size_;
  const RateFn rate_;
  const ClockFn clock_;

  std::atomic<size_t> phi_;
  std::atomic<int64_t> window_max_{0};
  std::atomic<int64_t> last_adjust_nanos_{0};
  /// `latency_`'s bucket counts at the last interval close: the p99 of what
  /// was recorded since is `last_p99_nanos`. Only reported — decisions use
  /// the interval maximum, preserving the original engine behavior.
  const obs::Histogram* const latency_;
  /// Sized at construction (5.6 KiB, like the interval histogram it
  /// replaced), not at the first interval close: deferring the allocation
  /// moves the operators the engine allocates next, and that slowed
  /// hybrid_two_query's simulated-GPGPU execution by ~40% (perfbench on a
  /// four-core host; a heap-placement effect whose cause is not located).
  obs::Histogram::Counts interval_start_;

  /// Monotone counters double as the metrics-registry series for this
  /// controller (registered by RegisterMetrics); Stats() reads the same
  /// storage, so the CLI summary and a /metrics scrape can never diverge.
  obs::Counter observations_;
  obs::Counter adjust_count_;
  obs::Counter shrink_count_;
  obs::Counter grow_count_;
  obs::Counter clamp_events_;
  std::atomic<int64_t> last_p99_nanos_{0};
  std::atomic<int64_t> last_window_max_nanos_{0};
};

}  // namespace saber
