#include "core/task_size_controller.h"

#include <algorithm>
#include <cstring>

#include "runtime/clock.h"

namespace saber {

namespace {

/// Largest multiple of `tuple_size` that is <= bytes, floored at one tuple.
size_t RoundDownToTuple(size_t bytes, size_t tuple_size) {
  return std::max(tuple_size, bytes / tuple_size * tuple_size);
}

}  // namespace

TaskSizeController::TaskSizeController(const TaskSizeControllerOptions& options,
                                       size_t max_task_size, size_t tuple_size,
                                       RateFn rate, ClockFn clock,
                                       const obs::Histogram* latency)
    : options_(options),
      max_task_size_(RoundDownToTuple(max_task_size, tuple_size)),
      // A floor above the ceiling (e.g. --min-task-size past --task-size)
      // would hand std::clamp an inverted range (UB); the ceiling wins.
      min_task_size_(std::min(
          RoundDownToTuple(std::max(options.min_task_size, tuple_size),
                           tuple_size),
          RoundDownToTuple(max_task_size, tuple_size))),
      tuple_size_(tuple_size),
      rate_(std::move(rate)),
      clock_(clock ? std::move(clock) : ClockFn(&NowNanos)),
      phi_(RoundDownToTuple(max_task_size, tuple_size)),
      latency_(latency),
      interval_start_(obs::Histogram::kBuckets) {
  if (options_.initial_task_size != 0 &&
      options_.policy != TaskSizePolicy::kFixedPhi) {
    phi_.store(RoundDownToTuple(std::clamp(options_.initial_task_size,
                                           min_task_size_, max_task_size_),
                                tuple_size_),
               std::memory_order_relaxed);
  }
  last_adjust_nanos_.store(clock_(), std::memory_order_relaxed);
}

size_t TaskSizeController::RoundToTuple(size_t bytes) const {
  return RoundDownToTuple(bytes, tuple_size_);
}

void TaskSizeController::Observe(int64_t latency_nanos) {
  observations_.Increment();
  if (options_.policy == TaskSizePolicy::kFixedPhi) return;

  // Fold this observation into the interval maximum.
  int64_t seen = window_max_.load(std::memory_order_relaxed);
  while (latency_nanos > seen &&
         !window_max_.compare_exchange_weak(seen, latency_nanos,
                                            std::memory_order_relaxed)) {
  }

  const int64_t now = clock_();
  const int64_t last = last_adjust_nanos_.load(std::memory_order_relaxed);
  if (now - last < options_.adjust_interval_nanos) return;
  int64_t expected = last;
  if (!last_adjust_nanos_.compare_exchange_strong(expected, now,
                                                  std::memory_order_relaxed)) {
    return;  // another worker claimed this interval
  }
  const int64_t window_max = window_max_.exchange(0);
  if (window_max == 0) return;  // no completions this interval
  last_window_max_nanos_.store(window_max, std::memory_order_relaxed);
  if (latency_ != nullptr) {
    last_p99_nanos_.store(
        std::min(latency_->WindowPercentileNanos(99, &interval_start_),
                 window_max),
        std::memory_order_relaxed);
  }
  Adjust(window_max);
}

void TaskSizeController::Adjust(int64_t window_max) {
  const int64_t target = options_.latency_target_nanos;
  const size_t cur = phi_.load(std::memory_order_relaxed);
  size_t proposal = cur;
  bool clamped = false;
  if (window_max > target) {
    // Multiplicative decrease: larger overshoots shrink phi harder, like the
    // fixed-point batch-size iteration of [25].
    proposal = window_max > 2 * target ? cur / 4 : cur / 2;
    if (options_.policy == TaskSizePolicy::kThroughputGuard && rate_) {
      // Refuse to shrink past the dispatch-overhead wall: task cost is at
      // most linear in phi, so halving phi at least doubles the task rate —
      // the projected rate after the shrink is bounded below by
      // rate * cur / proposal. Clamp the shrink so that projection stays
      // under guard_max_task_rate (the smallest admissible phi is
      // cur * rate / guard_max_task_rate).
      const double task_rate = rate_();
      if (task_rate > 0) {
        const double guard_floor =
            static_cast<double>(cur) * task_rate / options_.guard_max_task_rate;
        if (static_cast<double>(proposal) < guard_floor) {
          proposal = static_cast<size_t>(
              std::min(static_cast<double>(cur), guard_floor));
          clamped = true;
        }
      }
    }
  } else if (window_max < target / 2) {
    // Gentle additive increase while comfortably below target (throughput
    // recovery).
    proposal = cur + cur / 4;
  }
  size_t next = std::clamp(proposal, min_task_size_, max_task_size_);
  next = RoundToTuple(next);
  clamped = clamped || next != RoundToTuple(std::max(proposal, tuple_size_));
  if (clamped) clamp_events_.Increment();
  if (next == cur) return;
  (next < cur ? shrink_count_ : grow_count_).Increment();
  adjust_count_.Increment();
  phi_.store(next, std::memory_order_relaxed);
}

void TaskSizeController::RegisterMetrics(obs::MetricsRegistry* registry,
                                         const obs::Labels& labels,
                                         const void* owner) const {
  registry->RegisterCounter(
      "saber_controller_observations_total", labels, &observations_, owner,
      "Task latency observations fed to the task-size controller");
  registry->RegisterCounter("saber_controller_adjusts_total", labels,
                            &adjust_count_, owner,
                            "Applied task-size (phi) changes");
  registry->RegisterCounter("saber_controller_shrinks_total", labels,
                            &shrink_count_, owner,
                            "Multiplicative-decrease phi changes");
  registry->RegisterCounter("saber_controller_grows_total", labels,
                            &grow_count_, owner,
                            "Additive-increase phi changes");
  registry->RegisterCounter(
      "saber_controller_clamps_total", labels, &clamp_events_, owner,
      "Phi proposals limited by bounds or the throughput guard");
}

ControllerStats TaskSizeController::Stats() const {
  ControllerStats s;
  s.policy = options_.policy;
  s.current_phi = phi_.load(std::memory_order_relaxed);
  s.observations = observations_.value();
  s.adjust_count = adjust_count_.value();
  s.shrink_count = shrink_count_.value();
  s.grow_count = grow_count_.value();
  s.clamp_events = clamp_events_.value();
  s.last_p99_nanos = last_p99_nanos_.load(std::memory_order_relaxed);
  s.last_window_max_nanos =
      last_window_max_nanos_.load(std::memory_order_relaxed);
  return s;
}

const char* TaskSizeController::PolicyName(TaskSizePolicy policy) {
  switch (policy) {
    case TaskSizePolicy::kFixedPhi:
      return "fixed";
    case TaskSizePolicy::kLatencyTargetAimd:
      return "aimd";
    case TaskSizePolicy::kThroughputGuard:
      return "guard";
  }
  return "unknown";
}

bool TaskSizeController::ParsePolicy(const char* name, TaskSizePolicy* out) {
  if (std::strcmp(name, "fixed") == 0) {
    *out = TaskSizePolicy::kFixedPhi;
  } else if (std::strcmp(name, "aimd") == 0) {
    *out = TaskSizePolicy::kLatencyTargetAimd;
  } else if (std::strcmp(name, "guard") == 0) {
    *out = TaskSizePolicy::kThroughputGuard;
  } else {
    return false;
  }
  return true;
}

}  // namespace saber
