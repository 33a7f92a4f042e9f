#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file metrics.h
/// The unified metrics registry: one home for every operational number the
/// engine, ingestion stage, network front end, task-size controller and
/// fault registry used to keep in ad-hoc per-subsystem structs.
///
/// Instruments — counters, gauges, log-linear histograms — are registered
/// by (name, labels) and live for the registry's lifetime; registration
/// returns a stable pointer, so the hot path never touches the registry
/// again. A counter increment compiles to a single relaxed atomic add on the
/// instrument's own cache line slot — there is no lock, no hash lookup and
/// no branch on the per-event path.
///
/// **Snapshot consistency model.** `Snapshot()` replaces the old pattern of
/// reading five stats structs at five different instants (the `--stats-secs`
/// double-counting hazard): collectors run first (they fold lazily-owned
/// values — queue depth, limiter waits, fault-point hits — into registry
/// instruments), then every family is read in one pass under the
/// registration mutex. Within a family, all series are read consecutively
/// with no allocation or formatting between the reads, and each underlying
/// atomic is loaded exactly once per snapshot — so two series of the same
/// family can disagree only by the handful of increments that land inside
/// that tight loop, never by the milliseconds a formatter used to take
/// between struct reads. Counters are monotone (relaxed loads are safe), and
/// a given series is monotone across successive snapshots. The mutex blocks
/// only registration and other snapshots, never increments.
///
/// Ownership comes in two flavours:
///  - *Registry-owned* counters and gauges (GetCounter, GetGauge): live for
///    the registry's lifetime, get-or-create by (name, labels).
///  - *Externally-owned* instruments (RegisterCounter & friends): the
///    subsystem keeps the Counter/Gauge/Histogram as a plain value member —
///    its hot path and its per-component accessors read the very storage the
///    exposition reads, no offset bookkeeping — and the registry holds a
///    view. The owner MUST call Unregister(owner) before the instrument
///    dies; a series whose (name, labels) is re-registered (a recycled query
///    slot, a reconnected ingress) is repointed at the new instrument, which
///    Prometheus reads as an ordinary counter reset.
///
/// The engine owns one registry (or borrows one via `EngineOptions::metrics`)
/// and every attached subsystem — ingress fronts, the network server, the
/// task-size controllers — registers on it, so a single `Snapshot()` covers
/// the whole process tree of one engine.

namespace saber::obs {

/// Sorted-insensitive label set; kept in registration order for exposition.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone counter. Increment is one relaxed fetch_add.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Collector-only: overwrite with a value maintained elsewhere (e.g. a
  /// rate limiter's internal wait count folded in at snapshot time). The
  /// source must be monotone; hot paths use Increment.
  void StoreForCollector(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time value (queue depth, live φ, armed flags).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-linear latency histogram: 16 linear sub-buckets per octave (a bucket
/// is at most 1/16 of its values wide), O(1) `clz` indexing, 0 ns to ~4.8 h
/// (negative values clamp to 0). It serves percentiles for the latency
/// curves of Figs. 11 and 12 and the Prometheus exposition, whose `le`
/// edges each close a bucket, so every cumulative `_bucket` count is exact.
/// Record is three relaxed atomic operations; the count is the buckets'
/// total, so it can never disagree with them.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kOctaves = 44;
  static constexpr size_t kBuckets = size_t{kOctaves} * kSubBuckets;
  using Counts = std::vector<int64_t>;  // a plain copy of the buckets

  Histogram() : buckets_(kBuckets) {}

  void Record(int64_t nanos) {
    if (nanos < 0) nanos = 0;
    buckets_[BucketIndex(static_cast<uint64_t>(nanos))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (nanos > prev &&
           !max_.compare_exchange_weak(prev, nanos, std::memory_order_relaxed)) {
    }
  }

  int64_t count() const;
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t max_nanos() const { return max_.load(std::memory_order_relaxed); }
  double mean_nanos() const {
    const int64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  /// Approximate value at percentile `p` in [0, 100], clamped to the
  /// observed maximum (a bucket's bound can exceed every value in it).
  int64_t PercentileNanos(double p) const;
  /// Percentile `p` of the values recorded since `*since` (empty: since
  /// construction), then advances `*since` to now. Unclamped.
  int64_t WindowPercentileNanos(double p, Counts* since) const;
  std::string Summary() const;  // count, mean, p50, p99, max

  int64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  static int64_t BucketUpperBound(size_t i);  // largest value bucket i holds
  /// The exposition's `le` edges: 2^k - 1 ns for k in [13, 33] (8.2 µs ..
  /// 8.6 s), the upper bounds of the last bucket of an octave.
  static const std::vector<int64_t>& ExpositionBounds();

 private:
  static size_t BucketIndex(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const uint64_t sub = (v >> (msb - 4)) & (kSubBuckets - 1);
    return std::min(static_cast<size_t>(msb - 3) * kSubBuckets + sub,
                    kBuckets - 1);
  }

  std::vector<std::atomic<int64_t>> buckets_;  // kBuckets of them
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One series as read by Snapshot().
struct SeriesSnapshot {
  Labels labels;
  int64_t counter_value = 0;               // kCounter
  double gauge_value = 0.0;                // kGauge
  std::vector<int64_t> bucket_counts;      // kHistogram, non-cumulative
  int64_t sum = 0;                         // kHistogram
  int64_t count = 0;                       // kHistogram
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<int64_t> bounds;  // histogram `le` edges (ExpositionBounds)
  std::vector<SeriesSnapshot> series;
};

/// The DumpMetrics result: every family, name-sorted, series in
/// registration order. See the file comment for the consistency model.
struct MetricsSnapshot {
  std::vector<FamilySnapshot> families;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The same (name, labels) always returns the same
  /// instrument pointer (stable for the registry's lifetime); re-registering
  /// a name with a different metric type aborts — metric names are a
  /// global contract, not per-caller state.
  /// Counter names end in `_total` by convention (the exposition linter
  /// enforces it).
  Counter* GetCounter(std::string_view name, Labels labels = {},
                      std::string_view help = "");
  Gauge* GetGauge(std::string_view name, Labels labels = {},
                  std::string_view help = "");

  /// Registers a view over an instrument owned by `owner` (a query state, an
  /// ingress shard, the network server). Same name↔type contract as the
  /// Get* family. Re-registering an existing (name, labels) repoints the
  /// series at the new instrument (slot-recycling ⇒ counter reset on the
  /// wire). `owner` must be non-null and must call Unregister(owner) before
  /// the instrument is destroyed. Histograms are only ever external.
  void RegisterCounter(std::string_view name, Labels labels, const Counter* c,
                       const void* owner, std::string_view help = "");
  void RegisterGauge(std::string_view name, Labels labels, const Gauge* g,
                     const void* owner, std::string_view help = "");
  void RegisterHistogram(std::string_view name, Labels labels,
                         const Histogram* h, const void* owner,
                         std::string_view help = "");

  /// Drops every external series and every collector registered with this
  /// owner tag. Registry-owned instruments are never dropped (their series
  /// stay monotone for the registry's lifetime).
  void Unregister(const void* owner);

  /// Registers a snapshot-time collector: runs (serialized, in registration
  /// order) at the start of every Snapshot, before the families are read.
  /// Collectors fold externally-maintained values into registry instruments
  /// (Gauge::Set / Counter::StoreForCollector); they may also register new
  /// instruments. Pass the same `owner` used for external instruments to
  /// have Unregister remove the collector too.
  ///
  /// Lock contract: collectors execute while the registry holds its
  /// collector lock. A collector must therefore never acquire a lock that
  /// any thread holds while calling into this registry (Register*,
  /// Unregister, AddCollector, Get*) — that is an ABBA deadlock against a
  /// concurrent Snapshot. Subsystems that register series under their own
  /// admission/teardown locks (the engine's query registry, an ingress
  /// front) must feed their collectors from lock-free views instead.
  void AddCollector(std::function<void()> fn, const void* owner = nullptr);

  /// The DumpMetrics API (see the consistency model in the file comment).
  MetricsSnapshot Snapshot() const;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    // External view (exactly one of owned/external is set per series).
    const Counter* ext_counter = nullptr;
    const Gauge* ext_gauge = nullptr;
    const Histogram* ext_histogram = nullptr;
    const void* owner = nullptr;  // Unregister key for external series
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<Series> series;  // registration order; small, linear scans
  };
  struct CollectorEntry {
    std::function<void()> fn;
    const void* owner = nullptr;
  };

  Family* GetFamilyLocked(std::string_view name, MetricType type,
                          std::string_view help);
  Series* GetSeriesLocked(Family* family, Labels&& labels);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
  mutable std::mutex collectors_mu_;
  std::vector<CollectorEntry> collectors_;
};

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` per family, `_bucket{le=...}`/`_sum`/`_count`
/// expansion for histograms, label-value escaping per the spec.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// Human-readable one-line-per-series formatter shared by the saber_server
/// `--stats-secs` ticker / shutdown print and the saber_cli run summary —
/// a *view* over the same registry the exposition endpoint serves, not a
/// second bookkeeping path. Zero-valued series are elided unless the family
/// carries a non-zero sibling, so steady-state output stays short while
/// recovery counters (retries, reconnects, watchdog trips) become visible
/// the moment they fire. Histograms render as count/p50/p99 estimated from
/// the bucket bounds.
std::string FormatMetricsSummary(const MetricsSnapshot& snapshot,
                                 std::string_view line_prefix = "");

}  // namespace saber::obs
