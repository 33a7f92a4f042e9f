#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "relational/schema.h"

/// \file harness.h
/// Shared pieces of the end-to-end benchmark: the command line, the phase
/// plan, the generated stream and its send schedule, the result sink every
/// workload uses, bench-side spans, /proc readings and the one-line JSON
/// result the runner relays.

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;   ///< saber_server binary (remote_select)
  std::string out_dir;  ///< where traced runs write their Chrome trace
  /// hybrid_two_query only: "cpu" or "gpu" turns the other processor off
  /// (the Fig. 8 comparison); the default runs both.
  std::string processors = "hybrid";
  /// hybrid_two_query only: "hls" replaces the default FCFS scheduling.
  std::string scheduler = "fcfs";
};

/// How a run spends its --seconds: an untimed saturated warm-up that flows
/// straight into the timed saturated phase, then the open-loop phase.
struct Plan {
  double warmup_s = 0;
  double saturated_s = 0;
  double open_s = 0;
  int setups = 15;  ///< set-ups timed per run; setup_s is their median
};
Plan MakePlan(double seconds);

/// Sleeps (never spins) until the monotonic clock reaches `deadline`.
void SleepUntil(int64_t deadline_nanos);

double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

int64_t ProcessCpuNanos();
/// utime + stime of another process, from /proc/<pid>/stat.
int64_t ChildCpuNanos(pid_t pid);
/// VmHWM of `pid` (0 = this process) in MiB.
double PeakRssMiB(pid_t pid);

/// Reads field `f` of a serialized row as int64 / double, whatever its type.
int64_t FieldInt(const uint8_t* row, const saber::Field& f);
double FieldDouble(const uint8_t* row, const saber::Field& f);

// ---------------------------------------------------------------------------
// The generated stream: one block of syn::Generate tuples (64 per timestamp)
// repeated with its timestamps shifted by the block's span, so timestamps
// stay monotone for every query, count windows included. A timestamp is the
// global index of its 64-tuple group.
// ---------------------------------------------------------------------------

inline constexpr int64_t kTuplesPerTs = 64;
inline constexpr size_t kTupleSize = 32;

/// Copies `n` tuples starting at local index `local` of `block` into `out`,
/// adding `shift` to every timestamp.
void CopyShifted(const std::vector<uint8_t>& block, size_t local, size_t n,
                 int64_t shift, uint8_t* out);

/// Maps a result row's timestamp to the time its last contributing tuple was
/// due to be sent in the open-loop phase. Every input stream is sent in
/// chunks; a chunk is due when its last tuple is due. Within one block the
/// chunk that carries a group's last tuple is fixed (`chunk_of_group`), so
/// the table is built once per run.
class DueTable {
 public:
  DueTable(std::vector<int32_t> chunk_of_group, int64_t chunks_per_block)
      : chunk_of_group_(std::move(chunk_of_group)),
        chunks_per_block_(chunks_per_block) {}

  /// Opens the schedule: chunk `first_chunk` of every stream is due at
  /// t0 + period, the next one a period later, and so on.
  void Open(int64_t t0, int64_t first_chunk, double period_nanos) {
    first_chunk_ = first_chunk;
    period_ = period_nanos;
    t0_.store(t0, std::memory_order_release);
  }
  int64_t ChunkDue(int64_t chunk) const {
    return t0_.load(std::memory_order_relaxed) +
           static_cast<int64_t>(static_cast<double>(chunk - first_chunk_ + 1) *
                                period_);
  }
  /// Due time of group `ts`, or -1 before the schedule opened or for groups
  /// sent before it.
  int64_t GroupDue(int64_t ts) const {
    if (t0_.load(std::memory_order_acquire) < 0 || ts < 0) return -1;
    const int64_t gb = static_cast<int64_t>(chunk_of_group_.size());
    const int64_t chunk = ts / gb * chunks_per_block_ + chunk_of_group_[ts % gb];
    return chunk < first_chunk_ ? -1 : ChunkDue(chunk);
  }

 private:
  std::vector<int32_t> chunk_of_group_;
  int64_t chunks_per_block_;
  std::atomic<int64_t> t0_{-1};
  int64_t first_chunk_ = 0;
  double period_ = 0;
};

// ---------------------------------------------------------------------------
// Bench-side spans (traced runs only): one lane per thread, no locking.
// ---------------------------------------------------------------------------

class SpanLane {
 public:
  SpanLane(std::string name, int tid, bool enabled)
      : name_(std::move(name)), tid_(tid), enabled_(enabled) {}
  void Record(int64_t begin, int64_t end) {
    if (!enabled_) return;
    if (spans_.size() < kMaxSpans) {
      spans_.emplace_back(begin, end);
    } else {
      ++dropped_;
    }
  }
  void AppendChromeEvents(std::string* out, bool* first) const;

 private:
  static constexpr size_t kMaxSpans = 1 << 18;
  std::string name_;
  int tid_;
  bool enabled_;
  std::vector<std::pair<int64_t, int64_t>> spans_;
  int64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// The result sink: the engine's sink callback in-process, the subscriber's
// NextBatch loop remotely. Calls are serialized (the engine's in-order
// assembly; the single subscriber thread).
// ---------------------------------------------------------------------------

enum class Keep {
  kDigest,  ///< order-sensitive digest of every row
  /// kDigest, plus the sum of field 2 (cnt) over each run of rows sharing
  /// a timestamp: one window of a GROUP-BY aggregation.
  kWindowDigest,
  kSample,  ///< every kSampleStride-th row, tagged with its position
  kAll,     ///< every row
};

/// Order-sensitive digest of a row sequence: swapping, dropping or changing
/// a row changes it.
struct RowDigest {
  int64_t rows = 0;
  uint64_t hash = 0;
  void Add(const uint8_t* row, size_t size);
};

class Sink {
 public:
  static constexpr int64_t kSampleStride = 4099;
  static constexpr size_t kPrefixRows = 1 << 14;

  Sink(const saber::Schema& schema, Keep keep, const DueTable* due,
       SpanLane* lane);

  void OnBatch(const uint8_t* data, size_t bytes);

  /// Input tuples whose results have reached the sink: every group up to
  /// the newest row timestamp.
  int64_t progress_tuples() const {
    return (max_ts_.load(std::memory_order_acquire) + 1) * kTuplesPerTs;
  }
  int64_t rows() const { return rows_.load(std::memory_order_relaxed); }

  // Read after the stream ended.
  const saber::Schema& schema() const { return schema_; }
  const std::vector<uint8_t>& prefix() const { return prefix_; }
  const std::vector<uint8_t>& all_rows() const { return all_; }
  const std::vector<std::pair<int64_t, std::vector<uint8_t>>>& samples() const {
    return samples_;
  }
  const RowDigest& digest() const { return digest_; }
  /// kWindowDigest: (window timestamp, sum of its rows' cnt), in order.
  const std::vector<std::pair<int64_t, int64_t>>& windows() const {
    return windows_;
  }
  /// Open-loop samples: (due time, latency in ms).
  const std::vector<std::pair<int64_t, double>>& latency() const {
    return latency_;
  }
  /// (arrival time, progress_tuples()) after every batch.
  const std::vector<std::pair<int64_t, int64_t>>& history() const {
    return history_;
  }

 private:
  const saber::Schema schema_;
  const size_t row_size_;
  const Keep keep_;
  const DueTable* due_;
  SpanLane* lane_;

  std::atomic<int64_t> max_ts_{-1};
  std::atomic<int64_t> rows_{0};
  std::vector<uint8_t> prefix_;
  std::vector<uint8_t> all_;
  std::vector<std::pair<int64_t, std::vector<uint8_t>>> samples_;
  RowDigest digest_;
  std::vector<std::pair<int64_t, int64_t>> windows_;
  std::vector<std::pair<int64_t, double>> latency_;
  std::vector<std::pair<int64_t, int64_t>> history_;
};

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run ("steal" in /proc/stat), in clock ticks, all CPUs.
int64_t HostStealTicks();

/// A timed phase cut into equal slices. A metric is the quartile of its
/// per-slice values on the better side: the upper quartile of a rate, the
/// lower quartile of a latency or a cost (see BetterQuartile). The host
/// steal of each slice is kept for the report on stderr only.
struct Slices {
  int64_t from = 0;
  int64_t len = 0;
  std::vector<int64_t> steal;  ///< ticks per slice

  int count() const { return static_cast<int>(steal.size()); }
  int64_t begin(int i) const { return from + i * len; }
};

/// The quartile of per-slice values on the better side: the upper one when
/// higher is better, else the lower one; NaN entries (slices without data)
/// are skipped. Other guests on a shared host only ever make a slice
/// slower, in bursts of seconds that the steal counter does not always
/// show; the better quartile reads the program in the least disturbed
/// quarter of the phase, while a change that slows every slice moves it in
/// full.
double BetterQuartile(std::vector<double> per_slice, bool higher_is_better);

/// Prints each slice's value and host steal to stderr.
void PrintSlices(const char* what, const Slices& slices,
                 const std::vector<double>& per_slice);

/// Input tuples per second whose results reached the sinks in each slice:
/// per sink, progress between its first and last batch inside the slice
/// over the time between them (so the rate is not quantized by task
/// boundaries), summed over sinks.
std::vector<double> SliceRates(const std::vector<const Sink*>& sinks,
                               const Slices& slices);

/// Quantile `q` of the open-loop latency samples whose due time falls in
/// each slice. *count receives the number of samples in all slices.
std::vector<double> SliceLatency(const std::vector<const Sink*>& sinks,
                                 const Slices& slices, double q, size_t* count);

// ---------------------------------------------------------------------------
// Reading the engine's own surfaces.
// ---------------------------------------------------------------------------

/// A Prometheus text exposition, parsed: one entry per series.
class PromText {
 public:
  explicit PromText(const std::string& text);
  /// Sum over every series of `name` whose label set contains `filter`.
  double Sum(const std::string& name, const std::string& filter = "") const;
  /// Quantile `q` of a histogram family (`name`_bucket series summed over
  /// label sets), interpolated linearly inside the bucket.
  double HistogramQuantile(const std::string& name, double q) const;

 private:
  std::vector<std::pair<std::string, double>> series_;  // "name{labels}"
};

/// HTTP GET of http://127.0.0.1:<port><path>; empty on failure.
std::string HttpGet(int port, const std::string& path);

/// Stage durations (µs) of an engine Chrome trace, keyed by stage name and
/// by "stage/backend".
std::map<std::string, std::vector<double>> TraceStageMicros(
    const std::string& chrome_json);

/// Writes one Chrome trace holding the engine's events (the "traceEvents"
/// of `engine_json`) followed by the bench-side lanes.
bool WriteMergedTrace(const std::string& path, const std::string& engine_json,
                      const std::vector<const SpanLane*>& lanes);

// ---------------------------------------------------------------------------
// The result line.
// ---------------------------------------------------------------------------

/// The end-to-end metrics (untraced runs).
struct EndToEnd {
  double throughput_mtps = 0;
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double cpu_ns_per_tuple = 0;
  double setup_s = 0;
  double rss_peak_mb = 0;
};

/// The per-layer metrics (traced runs). A layer a workload does not run
/// reads 0.
struct Layers {
  double gen_lag_ms_max = 0, gen_blocked_ms_per_s = 0;
  double net_frames_per_s = 0, net_bytes_per_frame = 0;
  double net_result_batches_per_s = 0, net_rows_per_result_batch = 0;
  double net_subscriber_wait_ms_per_s = 0;
  double ingest_merge_cycles_per_s = 0, ingest_bytes_per_merge_cycle = 0;
  double ingest_backpressure_waits = 0, ingest_watermark_stalls = 0;
  double core_tasks_per_s = 0, core_queue_depth_mean = 0;
  double core_task_latency_p50_ms = 0, core_task_latency_p99_ms = 0;
  double core_dispatch_us_p50 = 0, core_queue_wait_us_p50 = 0;
  double core_gpu_share_q0 = 0, core_gpu_share_q1 = 0;
  double cpu_tasks_per_s = 0, cpu_execute_us_p50 = 0, cpu_assembly_us_p50 = 0;
  double gpu_tasks_per_s = 0, gpu_execute_us_p50 = 0, gpu_task_retries = 0;
  double gpu_copyin_ms_per_s = 0, gpu_movein_ms_per_s = 0;
  double gpu_execute_ms_per_s = 0, gpu_moveout_ms_per_s = 0;
  double gpu_copyout_ms_per_s = 0;
  double sink_us_p50 = 0, sink_rows_per_s = 0, sink_latency_p99_ms = 0;
  double trace_overhead_pct = 0;

  /// Fills the span-derived medians from an engine Chrome trace.
  void FromTrace(const std::string& chrome_json);
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Add(const EndToEnd& e);
  void Add(const Layers& l);
  std::string Json() const;

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Prints the thread budget next to nproc (stderr).
void PrintThreadBudget(int generator_threads, int cpu_workers,
                       int device_executors);

/// The workload runners: hybrid_two_query and small_task_agg run an engine
/// in this process, remote_select drives a saber_server child process.
Report RunInProcess(const Args& args);
Report RunRemoteSelect(const Args& args);

}  // namespace perfbench
