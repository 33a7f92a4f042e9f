/// hybrid_two_query and small_task_agg: an engine in this process, fed by
/// one generator thread through QueryHandle::InsertInto.

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>
#include <thread>

#include "checks.h"
#include "core/engine.h"
#include "harness.h"
#include "runtime/clock.h"
#include "workloads.h"

namespace perfbench {
namespace {

using saber::Engine;
using saber::NowNanos;
using saber::Processor;
using saber::QueryHandle;

struct Spec {
  saber::EngineOptions options;
  std::vector<saber::QueryDef> queries;
  std::vector<Keep> keep;
  size_t block_tuples = 0;
  size_t chunk_tuples = 0;
  /// Open-loop offered rate, input tuples per second over all queries.
  double open_rate = 0;
  /// Tuples a sink may trail the feeder by once the input stops: one task
  /// plus the largest window.
  int64_t slack_tuples = 0;
  /// Both timed phases are cut into this many slices (see Slices).
  int slices = 20;
};

Spec MakeSpec(const Args& args) {
  Spec s;
  if (args.workload == "hybrid_two_query") {
    s.options.num_cpu_workers = 2;
    s.options.use_gpu = true;
    s.options.device.num_executors = 1;
    s.options.task_size = size_t{1} << 20;
    // PROJ6 runs at a few tasks per second: a small input buffer keeps the
    // cheap GROUP-BY from running megabytes ahead of it, so the saturated
    // phase measures the pair's steady state.
    s.options.input_buffer_size = size_t{4} << 20;
    s.queries = {HybridProjection(), HybridGroupBy()};
    s.keep = {Keep::kSample, Keep::kAll};
    s.block_tuples = size_t{1} << 18;
    // A call's tuples share one due time and a result waits for its 1 MiB
    // task to fill: with 16384-tuple calls a task spanned two of them, the
    // latencies fell on two steps per processor and p50 landed between
    // steps. 2048-tuple calls make the steps eight times finer.
    s.chunk_tuples = size_t{1} << 11;
    // About a fifth of saturation: at 0.8 Mtuples/s, with the processors
    // near half busy, host noise was amplified by queueing into p50 swings
    // of a fifth between runs.
    s.open_rate = 0.4e6;
    s.slack_tuples = (int64_t{1} << 15) + kCountSize + kTuplesPerTs;
    // Tens of tasks per second: a slice must span many of them.
    s.slices = 10;
    // FCFS, not HLS: HLS settles this pair in one of two assignments and
    // keeps it (PROJ6 on the GPGPU at ~0.85 Mtuples/s, or on the CPU at
    // ~2.6), because the throughput matrix rates a processor by how often
    // it completes a query's tasks, which is low for whichever processor
    // only explores. Which one wins is a race among the first tasks, so
    // HLS runs of identical code differ threefold. --scheduler hls runs it.
    s.options.scheduler = args.scheduler == "hls" ? saber::SchedulerKind::kHls
                                                  : saber::SchedulerKind::kFcfs;
    if (args.processors == "cpu") s.options.use_gpu = false;
    if (args.processors == "gpu") s.options.num_cpu_workers = 0;
  } else {
    s.options.num_cpu_workers = 2;
    s.options.use_gpu = false;
    s.options.task_size = size_t{16} << 10;
    s.queries = {SmallAggregation()};
    s.keep = {Keep::kWindowDigest};
    s.block_tuples = size_t{1} << 18;
    s.chunk_tuples = size_t{1} << 12;
    s.open_rate = 15.0e6;
    s.slack_tuples = 512 + (kAggRange + 2) * kTuplesPerTs;
  }
  return s;
}

int64_t ThreadCpuOf(std::thread& t) {
  clockid_t id;
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0) return 0;
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// One pass: set up, saturate, open loop, drain, check.
struct Pass {
  EndToEnd e2e;
  Layers layers;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  size_t latency_samples = 0;
  int64_t steal_ticks = 0;  ///< host steal over both timed phases
};

class InProcessRun {
 public:
  InProcessRun(const Spec& spec, const std::vector<uint8_t>& block,
               const Plan& plan, bool traced)
      : spec_(spec), block_(block), plan_(plan), traced_(traced),
        due_(ChunkOfGroup(spec), static_cast<int64_t>(spec.block_tuples /
                                                      spec.chunk_tuples)),
        feeder_lane_("InsertInto", 1, traced) {
    for (size_t q = 0; q < spec.queries.size(); ++q) {
      sink_lanes_.push_back(std::make_unique<SpanLane>(
          "sink.q" + std::to_string(q), 10 + static_cast<int>(q), traced));
    }
  }

  Pass Run(const std::string& trace_path);

 private:
  static std::vector<int32_t> ChunkOfGroup(const Spec& spec) {
    std::vector<int32_t> out(spec.block_tuples / kTuplesPerTs);
    for (size_t g = 0; g < out.size(); ++g) {
      out[g] = static_cast<int32_t>((g * kTuplesPerTs + kTuplesPerTs - 1) /
                                    spec.chunk_tuples);
    }
    return out;
  }

  /// Builds the engine and its queries and feeds the first chunk; returns
  /// the seconds that took.
  double SetUp();
  void TearDown() {
    if (engine_) engine_->Stop();
    engine_.reset();
    handles_.clear();
    sinks_.clear();
  }
  /// Feeds chunk `chunk` (global index) to every query. Returns false if a
  /// query dropped tuples.
  bool FeedRound(int64_t chunk, bool timed);
  int64_t Progress() const {
    int64_t p = 0;
    for (const auto& s : sinks_) p += s->progress_tuples();
    return p;
  }
  bool Check(int64_t tuples, std::string* why) const;

  const Spec& spec_;
  const std::vector<uint8_t>& block_;
  const Plan plan_;
  const bool traced_;
  DueTable due_;
  SpanLane feeder_lane_;
  std::vector<std::unique_ptr<SpanLane>> sink_lanes_;

  std::vector<std::unique_ptr<Sink>> sinks_;  // outlive the engine
  std::unique_ptr<Engine> engine_;
  std::vector<QueryHandle*> handles_;
  std::vector<uint8_t> scratch_;
  int64_t next_chunk_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t blocked_nanos_ = 0;
};

double InProcessRun::SetUp() {
  saber::EngineOptions o = spec_.options;
  o.trace_sample_rate = traced_ ? 1.0 : 0.0;
  for (size_t q = 0; q < spec_.queries.size(); ++q) {
    sinks_.push_back(std::make_unique<Sink>(
        spec_.queries[q].output_schema, spec_.keep[q], &due_,
        traced_ ? sink_lanes_[q].get() : nullptr));
  }
  scratch_.resize(spec_.chunk_tuples * kTupleSize);
  next_chunk_ = 0;
  const int64_t start = NowNanos();
  engine_ = std::make_unique<Engine>(o);
  for (size_t q = 0; q < spec_.queries.size(); ++q) {
    QueryHandle* h = engine_->AddQuery(spec_.queries[q]);
    Sink* sink = sinks_[q].get();
    (void)h->SetSink(
        [sink](const uint8_t* p, size_t n) { sink->OnBatch(p, n); });
    handles_.push_back(h);
  }
  engine_->Start();
  FeedRound(next_chunk_++, false);
  return (NowNanos() - start) / 1e9;
}

bool InProcessRun::FeedRound(int64_t chunk, bool timed) {
  const int64_t per_block =
      static_cast<int64_t>(spec_.block_tuples / spec_.chunk_tuples);
  const int64_t gb = static_cast<int64_t>(spec_.block_tuples) / kTuplesPerTs;
  CopyShifted(block_, static_cast<size_t>(chunk % per_block) * spec_.chunk_tuples,
              spec_.chunk_tuples, chunk / per_block * gb, scratch_.data());
  bool ok = true;
  for (QueryHandle* h : handles_) {
    const int64_t dropped = h->tuples_dropped();
    const int64_t begin = NowNanos();
    h->InsertInto(0, scratch_.data(), scratch_.size());
    const int64_t end = NowNanos();
    feeder_lane_.Record(begin, end);
    const bool op_ok = h->tuples_dropped() == dropped;
    ok = ok && op_ok;
    if (timed) {
      blocked_nanos_ += end - begin;
      ++attempted_;
      failed_ += op_ok ? 0 : 1;
    }
  }
  return ok;
}

bool InProcessRun::Check(int64_t tuples, std::string* why) const {
  std::vector<std::pair<std::string, CheckResult>> results;
  for (size_t q = 0; q < spec_.queries.size(); ++q) {
    const Sink& s = *sinks_[q];
    const saber::QueryDef& def = spec_.queries[q];
    const std::string name = def.name;
    if (!def.is_aggregation()) {
      results.emplace_back(name, CheckProjection(s.rows(), tuples, s.samples(),
                                                 s.schema(), block_, kProjChain));
    } else if (def.window[0].time_based()) {
      results.emplace_back(name, CheckTimeWindows(s.digest(), s.windows(), s.schema(),
                                                  block_, tuples, kAggRange,
                                                  kAggSlide, kAggGroups));
    } else {
      results.emplace_back(name, CheckCountWindows(s.all_rows(), s.schema(),
                                                   block_, tuples, kCountSize,
                                                   kCountSlide, 1e-9));
    }
    const int64_t prefix_tuples = def.is_aggregation() ? 16384 : 8192;
    results.emplace_back(
        name + " reference prefix",
        CheckPrefix(s.prefix(), ReferencePrefix(def, block_, prefix_tuples),
                    s.schema().tuple_size()));
  }
  bool ok = true;
  for (const auto& [name, r] : results) {
    std::fprintf(stderr, "check %-28s %s %s\n", name.c_str(),
                 r.ok ? "ok" : "FAILED", r.what.c_str());
    if (!r.ok && why->empty()) *why = name + ": " + r.what;
    ok = ok && r.ok;
  }
  return ok;
}

Pass InProcessRun::Run(const std::string& trace_path) {
  Pass out;
  std::vector<double> setups;
  for (int i = 0; i < plan_.setups; ++i) {
    setups.push_back(SetUp());
    if (i + 1 < plan_.setups) TearDown();
  }
  out.e2e.setup_s = Median(setups);
  const size_t nq = handles_.size();
  std::vector<const Sink*> sinks;
  for (const auto& s : sinks_) sinks.push_back(s.get());

  // Saturated closed loop: the feeder inserts as fast as back-pressure
  // admits; the first warmup_s seconds are not timed.
  std::atomic<bool> timed{false}, stop{false};
  std::thread feeder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      FeedRound(next_chunk_++, timed.load(std::memory_order_relaxed));
    }
  });
  SleepUntil(NowNanos() + static_cast<int64_t>(plan_.warmup_s * 1e9));

  struct Counters {
    int64_t t, steal, progress, cpu, rows, cpu_tasks, gpu_tasks;
    int64_t bytes_cpu[2], bytes_gpu[2];
    int64_t dev[5];
  };
  auto snapshot = [&]() {
    Counters c{};
    c.t = NowNanos();
    c.steal = HostStealTicks();
    c.progress = Progress();
    // The system under test: this process minus the generator thread.
    c.cpu = ProcessCpuNanos() - ThreadCpuOf(feeder);
    for (size_t q = 0; q < nq; ++q) {
      c.rows += sinks_[q]->rows();
      c.cpu_tasks += handles_[q]->tasks_on(Processor::kCpu);
      c.gpu_tasks += handles_[q]->tasks_on(Processor::kGpu);
      c.bytes_cpu[q] = handles_[q]->bytes_on(Processor::kCpu);
      c.bytes_gpu[q] = handles_[q]->bytes_on(Processor::kGpu);
    }
    if (saber::SimDevice* d = engine_->device()) {
      const auto& s = d->stats();
      c.dev[0] = s.copyin_nanos.load();
      c.dev[1] = s.movein_nanos.load();
      c.dev[2] = s.execute_nanos.load();
      c.dev[3] = s.moveout_nanos.load();
      c.dev[4] = s.copyout_nanos.load();
    }
    return c;
  };
  std::vector<Counters> marks = {snapshot()};
  timed.store(true);
  const int64_t slice = static_cast<int64_t>(plan_.saturated_s * 1e9) / spec_.slices;
  double depth_sum = 0;
  int64_t depth_samples = 0;
  for (int i = 1; i <= spec_.slices; ++i) {
    const int64_t mark = marks[0].t + i * slice;
    while (traced_ && NowNanos() < mark) {
      depth_sum += static_cast<double>(engine_->queue_depth());
      ++depth_samples;
      SleepUntil(std::min(mark, NowNanos() + 1'000'000));
    }
    SleepUntil(mark);
    marks.push_back(snapshot());
  }
  const Counters& a = marks.front();
  const Counters& b = marks.back();
  std::string engine_trace;
  if (traced_ && engine_->trace() != nullptr) {
    engine_trace = saber::obs::RenderChromeTrace(engine_->trace()->Drain());
  }
  stop.store(true);
  feeder.join();
  const int64_t blocked_saturated = blocked_nanos_;

  const double secs = (b.t - a.t) / 1e9;
  Slices sat{a.t, slice, {}};
  std::vector<double> cpu_per_tuple;
  for (size_t i = 1; i < marks.size(); ++i) {
    sat.steal.push_back(marks[i].steal - marks[i - 1].steal);
    const int64_t done = marks[i].progress - marks[i - 1].progress;
    cpu_per_tuple.push_back(
        done > 0 ? static_cast<double>(marks[i].cpu - marks[i - 1].cpu) / done
                 : NAN);
  }
  out.e2e.cpu_ns_per_tuple = BetterQuartile(cpu_per_tuple, false);

  // Let the backlog drain before the open loop starts.
  const int64_t fed = next_chunk_ * static_cast<int64_t>(spec_.chunk_tuples);
  const int64_t drain_deadline = NowNanos() + 5'000'000'000;
  while (Progress() < static_cast<int64_t>(nq) * (fed - spec_.slack_tuples) &&
         NowNanos() < drain_deadline) {
    SleepUntil(NowNanos() + 1'000'000);
  }

  // Open loop at a fixed offered rate: round k is due when its last tuple
  // is; the feeder sleeps to each due time and never spins.
  const double period =
      static_cast<double>(spec_.chunk_tuples * nq) / spec_.open_rate * 1e9;
  const int64_t rounds = std::max<int64_t>(
      1, static_cast<int64_t>(plan_.open_s * 1e9 / period));
  const int64_t first = next_chunk_;
  const int64_t t0 = NowNanos() + 1'000'000;
  due_.Open(t0, first, period);
  Slices open{
      t0, static_cast<int64_t>(static_cast<double>(rounds) * period) / spec_.slices, {}};
  int64_t max_lag = 0;
  std::thread open_feeder([&] {
    for (int64_t k = 0; k < rounds; ++k) {
      const int64_t due = due_.ChunkDue(first + k);
      SleepUntil(due);
      max_lag = std::max(max_lag, NowNanos() - due);
      FeedRound(next_chunk_++, true);
    }
  });
  int64_t steal = HostStealTicks();
  for (int i = 1; i <= spec_.slices; ++i) {
    SleepUntil(open.begin(i));
    const int64_t now = HostStealTicks();
    open.steal.push_back(now - steal);
    steal = now;
  }
  open_feeder.join();
  engine_->Drain();
  for (int64_t t : sat.steal) out.steal_ticks += t;
  for (int64_t t : open.steal) out.steal_ticks += t;
  // The sinks are quiet now: their histories may be read.
  const std::vector<double> rates = SliceRates(sinks, sat);
  out.e2e.throughput_mtps = BetterQuartile(rates, true) / 1e6;
  PrintSlices("saturated tuples/s", sat, rates);

  out.e2e.latency_p50_ms =
      BetterQuartile(SliceLatency(sinks, open, 0.50, &out.latency_samples), false);
  const std::vector<double> p95 = SliceLatency(sinks, open, 0.95, nullptr);
  out.e2e.latency_p95_ms = BetterQuartile(p95, false);
  PrintSlices("open-loop p95 ms", open, p95);
  out.e2e.rss_peak_mb = PeakRssMiB(0);

  std::string why;
  const int64_t tuples = next_chunk_ * static_cast<int64_t>(spec_.chunk_tuples);
  out.correct = Check(tuples, &why);
  out.attempted = attempted_;
  out.failed = failed_;

  Layers& l = out.layers;
  l.gen_lag_ms_max = max_lag / 1e6;
  l.gen_blocked_ms_per_s = blocked_saturated / 1e6 / secs;
  l.core_tasks_per_s =
      static_cast<double>((b.cpu_tasks - a.cpu_tasks) + (b.gpu_tasks - a.gpu_tasks)) /
      secs;
  l.core_queue_depth_mean =
      depth_samples > 0 ? depth_sum / static_cast<double>(depth_samples) : 0;
  for (QueryHandle* h : handles_) {
    l.core_task_latency_p50_ms = std::max(
        l.core_task_latency_p50_ms, h->latency().PercentileNanos(50) / 1e6);
    l.core_task_latency_p99_ms = std::max(
        l.core_task_latency_p99_ms, h->latency().PercentileNanos(99) / 1e6);
  }
  double* shares[2] = {&l.core_gpu_share_q0, &l.core_gpu_share_q1};
  for (size_t q = 0; q < nq && q < 2; ++q) {
    const double gpu = static_cast<double>(b.bytes_gpu[q] - a.bytes_gpu[q]);
    const double cpu = static_cast<double>(b.bytes_cpu[q] - a.bytes_cpu[q]);
    *shares[q] = gpu + cpu > 0 ? gpu / (gpu + cpu) : 0;
  }
  l.cpu_tasks_per_s = static_cast<double>(b.cpu_tasks - a.cpu_tasks) / secs;
  l.gpu_tasks_per_s = static_cast<double>(b.gpu_tasks - a.gpu_tasks) / secs;
  l.gpu_task_retries = static_cast<double>(engine_->gpu_task_retries());
  double* dev[5] = {&l.gpu_copyin_ms_per_s, &l.gpu_movein_ms_per_s,
                    &l.gpu_execute_ms_per_s, &l.gpu_moveout_ms_per_s,
                    &l.gpu_copyout_ms_per_s};
  for (int i = 0; i < 5; ++i) *dev[i] = (b.dev[i] - a.dev[i]) / 1e6 / secs;
  l.sink_rows_per_s = static_cast<double>(b.rows - a.rows) / secs;
  l.sink_latency_p99_ms = BetterQuartile(SliceLatency(sinks, open, 0.99, nullptr), false);
  if (traced_) {
    l.FromTrace(engine_trace);
    std::vector<const SpanLane*> lanes = {&feeder_lane_};
    for (const auto& s : sink_lanes_) lanes.push_back(s.get());
    if (!trace_path.empty() && !WriteMergedTrace(trace_path, engine_trace, lanes)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }
  TearDown();
  return out;
}

}  // namespace

Report RunInProcess(const Args& args) {
  const Spec spec = MakeSpec(args);

  const std::vector<uint8_t> block = MakeBlock(args.seed, spec.block_tuples);
  PrintThreadBudget(1, spec.options.num_cpu_workers,
                    spec.options.use_gpu ? spec.options.device.num_executors : 0);
  Report report;
  if (!args.trace) {
    const Pass p = InProcessRun(spec, block, MakePlan(args.seconds), false).Run("");
    std::fprintf(stderr,
                 "latency samples: %zu (p99 %.3f ms), generator lag max %.3f ms, "
                 "host steal %lld ticks\n",
                 p.latency_samples, p.layers.sink_latency_p99_ms,
                 p.layers.gen_lag_ms_max, static_cast<long long>(p.steal_ticks));
    report.correct = p.correct;
    report.attempted = p.attempted;
    report.failed = p.failed;
    report.Add(p.e2e);
    return report;
  }
  // Traced run: an untraced pass for the overhead baseline, then the traced
  // pass the per-layer metrics come from, each over half the time.
  const Plan half = MakePlan(args.seconds / 2.0);
  const Pass base = InProcessRun(spec, block, half, false).Run("");
  const std::string path = args.out_dir.empty()
                               ? ""
                               : args.out_dir + "/trace_" + args.workload + ".json";
  Pass traced = InProcessRun(spec, block, half, true).Run(path);
  traced.layers.trace_overhead_pct =
      (base.e2e.throughput_mtps - traced.e2e.throughput_mtps) /
      base.e2e.throughput_mtps * 100.0;
  report.correct = base.correct && traced.correct;
  report.attempted = base.attempted + traced.attempted;
  report.failed = base.failed + traced.failed;
  report.Add(traced.layers);
  return report;
}

}  // namespace perfbench
