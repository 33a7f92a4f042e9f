/// remote_select: the shipped saber_server on loopback (1 CPU worker, no
/// GPGPU). Two producer connections each send one timestamp shard of the
/// stream, jittered inside the query's lateness; one subscriber connection
/// receives the selection.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "checks.h"
#include "harness.h"
#include "net/client.h"
#include "runtime/clock.h"
#include "sql/parser.h"
#include "workloads.h"
#include "workloads/synthetic.h"

extern char** environ;

namespace perfbench {
namespace {

using saber::NowNanos;

constexpr int kProducers = 2;
constexpr size_t kBlockTuples = size_t{1} << 19;
constexpr size_t kShardTuples = kBlockTuples / kProducers;
constexpr size_t kChunkTuples = size_t{1} << 11;
constexpr int64_t kChunksPerBlock = kShardTuples / kChunkTuples;
/// Open-loop offered rate over both producers, tuples per second. A 1 MiB
/// task takes 16 ms to fill at this rate, so the fill, not the few
/// milliseconds a busy host adds after it, sets p95.
constexpr double kOpenRate = 2.0e6;
constexpr int kSlices = 20;
/// The server cuts a task per 1 MiB; the merger holds back the lateness.
constexpr int64_t kSlackTuples =
    (int64_t{1} << 15) + (kRemoteJitter + 2) * kTuplesPerTs + kChunkTuples;

/// A saber_server child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& binary, const std::string& trace_out) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    std::vector<std::string> argv = {binary, "--port", "0", "--workers", "1",
                                     "--no-gpu", "--metrics-port", "0",
                                     "--idle-timeout-ms", "0"};
    if (!trace_out.empty()) {
      argv.insert(argv.end(), {"--trace-sample", "1", "--trace-out", trace_out});
    }
    std::vector<char*> cargv;
    for (auto& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      pid_ = -1;
      return false;
    }
    out_ = fdopen(fds[0], "r");
    char line[512];
    while ((port_ == 0 || metrics_port_ == 0) &&
           std::fgets(line, sizeof(line), out_) != nullptr) {
      std::sscanf(line, "metrics on http://127.0.0.1:%d/metrics", &metrics_port_);
      std::sscanf(line, "saber_server listening on 127.0.0.1:%d", &port_);
    }
    return port_ > 0 && metrics_port_ > 0;
  }

  /// SIGTERM, then waits for the graceful shutdown (SIGKILL after 20 s).
  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 2000 && waitpid(pid_, &status, WNOHANG) == 0; ++i) {
        SleepUntil(NowNanos() + 10'000'000);
        if (i == 1999) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
        }
      }
      pid_ = -1;
    }
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  int metrics_port() const { return metrics_port_; }

 private:
  pid_t pid_ = -1;
  FILE* out_ = nullptr;
  int port_ = 0;
  int metrics_port_ = 0;
};

struct Pass {
  EndToEnd e2e;
  Layers layers;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  size_t latency_samples = 0;
  int64_t steal_ticks = 0;  ///< host steal over both timed phases
};

/// One producer connection and its shard.
struct Producer {
  saber::net::ProducerClient client;
  std::vector<uint8_t> scratch = std::vector<uint8_t>(kChunkTuples * kTupleSize);
  int64_t next_chunk = 0;  ///< per-producer chunk index over all blocks
  std::atomic<int64_t> blocks_done{0};
  int64_t attempted = 0;
  int64_t failed = 0;
  std::atomic<int64_t> send_nanos{0};
  int64_t max_lag = 0;
  std::unique_ptr<SpanLane> lane;
};

class RemoteRun {
 public:
  RemoteRun(const Args& args, const std::vector<uint8_t>& block,
            const std::vector<std::vector<uint8_t>>& shards, const Plan& plan,
            bool traced)
      : args_(args), block_(block), shards_(shards), plan_(plan),
        traced_(traced), due_(ChunkOfGroup(shards), kChunksPerBlock),
        sub_lane_("NextBatch", 20, traced), sink_lane_("sink", 21, traced) {}

  Pass Run();

 private:
  static std::vector<int32_t> ChunkOfGroup(
      const std::vector<std::vector<uint8_t>>& shards) {
    std::vector<int32_t> out(kBlockTuples / kTuplesPerTs, 0);
    for (const auto& shard : shards) {
      for (size_t j = 0; j < kShardTuples; ++j) {
        int64_t ts;
        std::memcpy(&ts, shard.data() + j * kTupleSize, sizeof(ts));
        out[static_cast<size_t>(ts)] = std::max(
            out[static_cast<size_t>(ts)], static_cast<int32_t>(j / kChunkTuples));
      }
    }
    return out;
  }

  double SetUp(bool keep);
  /// Sends producer p's next chunk. `timed` counts it as an operation.
  void SendChunk(int p, bool timed);
  std::string Scrape() const {
    return HttpGet(server_->metrics_port(), "/metrics");
  }

  const Args& args_;
  const std::vector<uint8_t>& block_;
  const std::vector<std::vector<uint8_t>>& shards_;
  const Plan plan_;
  const bool traced_;
  DueTable due_;
  SpanLane sub_lane_;
  SpanLane sink_lane_;
  std::string trace_file_;

  std::unique_ptr<ServerProcess> server_;
  saber::net::ControlClient control_;
  saber::net::ControlClient subscriber_;
  uint32_t query_id_ = 0;
  Producer producers_[kProducers];
  std::unique_ptr<Sink> sink_;
};

double RemoteRun::SetUp(bool keep) {
  const int64_t start = NowNanos();
  server_ = std::make_unique<ServerProcess>();
  if (!server_->Start(args_.server, traced_ ? trace_file_ : "")) return -1;
  const int port = server_->port();
  auto control = saber::net::ControlClient::Connect("127.0.0.1", port, 2000, 5);
  auto subscriber = saber::net::ControlClient::Connect("127.0.0.1", port, 2000, 5);
  if (!control.ok() || !subscriber.ok()) return -1;
  control_ = std::move(control).value();
  subscriber_ = std::move(subscriber).value();
  auto info = control_.Submit(kRemoteSql);
  if (!info.ok()) return -1;
  query_id_ = info.value().query_id;
  if (!subscriber_.Subscribe(query_id_).ok()) return -1;
  for (int p = 0; p < kProducers; ++p) {
    saber::net::DataHello hello;
    hello.query_id = query_id_;
    hello.producer = static_cast<uint16_t>(p);
    hello.num_producers = kProducers;
    hello.tuple_size = static_cast<uint32_t>(kTupleSize);
    // Count late tuples instead of dropping the connection.
    hello.late_policy =
        static_cast<uint8_t>(saber::ingest::LatePolicy::kDropAndCount);
    auto c = saber::net::ProducerClient::Connect("127.0.0.1", port, hello);
    if (!c.ok()) return -1;
    producers_[p].client = std::move(c).value();
    producers_[p].next_chunk = 0;
    producers_[p].lane = std::make_unique<SpanLane>(
        "Send.p" + std::to_string(p), 1 + p, traced_ && keep);
  }
  for (int p = 0; p < kProducers; ++p) SendChunk(p, false);
  const double secs = (NowNanos() - start) / 1e9;
  if (!keep) {
    control_.Close();
    subscriber_.Close();
    for (auto& pr : producers_) pr.client.Close();
    server_.reset();
  }
  return secs;
}

void RemoteRun::SendChunk(int p, bool timed) {
  Producer& pr = producers_[p];
  const int64_t k = pr.next_chunk++;
  CopyShifted(shards_[static_cast<size_t>(p)],
              static_cast<size_t>(k % kChunksPerBlock) * kChunkTuples,
              kChunkTuples,
              k / kChunksPerBlock * static_cast<int64_t>(kBlockTuples / kTuplesPerTs),
              pr.scratch.data());
  const int64_t begin = NowNanos();
  const bool ok = pr.client.Send(pr.scratch.data(), pr.scratch.size()).ok();
  const int64_t end = NowNanos();
  if (pr.lane) pr.lane->Record(begin, end);
  if (timed) {
    pr.send_nanos.fetch_add(end - begin, std::memory_order_relaxed);
    ++pr.attempted;
    pr.failed += ok ? 0 : 1;
  }
  if (k % kChunksPerBlock == kChunksPerBlock - 1) {
    pr.blocks_done.store(k / kChunksPerBlock + 1, std::memory_order_release);
  }
}

Pass RemoteRun::Run() {
  Pass out;
  trace_file_ = args_.out_dir.empty() ? "" : args_.out_dir + "/server_trace.json";
  std::vector<double> setups;
  for (int i = 0; i < plan_.setups; ++i) {
    const double s = SetUp(i + 1 == plan_.setups);
    if (s < 0) {
      std::fprintf(stderr, "remote_select: set-up failed\n");
      out.correct = false;
      out.attempted = 1;
      return out;
    }
    setups.push_back(s);
  }
  out.e2e.setup_s = Median(setups);

  sink_ = std::make_unique<Sink>(saber::syn::SyntheticSchema(), Keep::kDigest,
                                 &due_, traced_ ? &sink_lane_ : nullptr);
  std::atomic<int64_t> wait_nanos{0};
  bool sub_ended = false, sub_error = false;
  std::thread subscriber([&] {
    std::vector<uint8_t> batch;
    for (;;) {
      const int64_t begin = NowNanos();
      auto more = subscriber_.NextBatch(&batch);
      const int64_t end = NowNanos();
      sub_lane_.Record(begin, end);
      wait_nanos.fetch_add(end - begin, std::memory_order_relaxed);
      if (!more.ok()) {
        sub_error = true;
        return;
      }
      if (!more.value()) {
        sub_ended = true;
        return;
      }
      sink_->OnBatch(batch.data(), batch.size());
    }
  });

  // Saturated closed loop in whole blocks per producer: the phase ends at a
  // block boundary every producer reaches.
  std::atomic<bool> timed{false};
  std::atomic<int64_t> target_blocks{INT64_MAX};
  auto saturate = [&](int p) {
    Producer& pr = producers_[p];
    while (pr.next_chunk / kChunksPerBlock <
               target_blocks.load(std::memory_order_acquire) ||
           pr.next_chunk % kChunksPerBlock != 0) {
      SendChunk(p, timed.load(std::memory_order_relaxed));
    }
  };
  std::vector<std::thread> feeders;
  for (int p = 0; p < kProducers; ++p) feeders.emplace_back(saturate, p);
  SleepUntil(NowNanos() + static_cast<int64_t>(plan_.warmup_s * 1e9));

  struct Mark {
    int64_t t, steal, progress, cpu, rows, wait, send;
    std::string metrics;
  };
  auto mark = [&]() {
    Mark m;
    m.t = NowNanos();
    m.steal = HostStealTicks();
    m.progress = sink_->progress_tuples();
    m.cpu = ChildCpuNanos(server_->pid());
    m.rows = sink_->rows();
    m.wait = wait_nanos.load();
    m.send = 0;
    for (auto& pr : producers_) m.send += pr.send_nanos.load();
    if (traced_) m.metrics = Scrape();
    return m;
  };
  timed.store(true);
  std::vector<Mark> marks = {mark()};
  const int64_t slice = static_cast<int64_t>(plan_.saturated_s * 1e9) / kSlices;
  double depth_sum = 0;
  int depth_samples = 0;
  for (int i = 1; i <= kSlices; ++i) {
    const int64_t at = marks[0].t + i * slice;
    while (traced_ && NowNanos() + 50'000'000 < at) {
      SleepUntil(NowNanos() + 50'000'000);
      depth_sum += PromText(Scrape()).Sum("saber_engine_queue_depth");
      ++depth_samples;
    }
    SleepUntil(at);
    marks.push_back(mark());
  }
  int64_t most = 0;
  for (auto& pr : producers_) most = std::max(most, pr.blocks_done.load());
  target_blocks.store(most + 1, std::memory_order_release);
  for (auto& f : feeders) f.join();
  const Mark& a = marks.front();
  const Mark& b = marks.back();
  const double secs = (b.t - a.t) / 1e9;
  const std::vector<const Sink*> sinks = {sink_.get()};
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

  // Drain the backlog, then the open loop at a fixed offered rate in whole
  // blocks: chunk k of every producer is due when its last tuple is.
  const int64_t fed = (most + 1) * static_cast<int64_t>(kBlockTuples);
  const int64_t drain_deadline = NowNanos() + 5'000'000'000;
  while (sink_->progress_tuples() < fed - kSlackTuples && NowNanos() < drain_deadline) {
    SleepUntil(NowNanos() + 1'000'000);
  }
  const double period = 2.0 * kChunkTuples / kOpenRate * 1e9;
  const int64_t open_blocks = std::max<int64_t>(
      1, static_cast<int64_t>(plan_.open_s * kOpenRate / kBlockTuples + 0.5));
  const int64_t first = producers_[0].next_chunk;
  const int64_t t0 = NowNanos() + 1'000'000;
  due_.Open(t0, first, period);
  auto open_loop = [&](int p) {
    Producer& pr = producers_[p];
    for (int64_t k = 0; k < open_blocks * kChunksPerBlock; ++k) {
      const int64_t due = due_.ChunkDue(first + k);
      SleepUntil(due);
      pr.max_lag = std::max(pr.max_lag, NowNanos() - due);
      SendChunk(p, true);
    }
    if (!pr.client.End().ok()) ++pr.failed;
  };
  Slices open{t0,
              static_cast<int64_t>(static_cast<double>(open_blocks * kChunksPerBlock) *
                                   period) / kSlices,
              {}};
  feeders.clear();
  for (int p = 0; p < kProducers; ++p) feeders.emplace_back(open_loop, p);
  int64_t steal = HostStealTicks();
  for (int i = 1; i <= kSlices; ++i) {
    SleepUntil(open.begin(i));
    const int64_t now = HostStealTicks();
    open.steal.push_back(now - steal);
    steal = now;
  }
  for (auto& f : feeders) f.join();
  for (int64_t t : sat.steal) out.steal_ticks += t;
  for (int64_t t : open.steal) out.steal_ticks += t;
  const bool drained = control_.Drain(query_id_).ok();
  const PromText final_metrics(Scrape());
  out.e2e.rss_peak_mb = PeakRssMiB(server_->pid());
  const bool removed = control_.Remove(query_id_).ok();
  subscriber.join();
  // The subscriber is done: its sink's history may be read.
  const std::vector<double> rates = SliceRates(sinks, sat);
  out.e2e.throughput_mtps = BetterQuartile(rates, true) / 1e6;
  PrintSlices("saturated tuples/s", sat, rates);

  out.e2e.latency_p50_ms =
      BetterQuartile(SliceLatency(sinks, open, 0.50, &out.latency_samples), false);
  const std::vector<double> p95 = SliceLatency(sinks, open, 0.95, nullptr);
  out.e2e.latency_p95_ms = BetterQuartile(p95, false);
  PrintSlices("open-loop p95 ms", open, p95);

  // Operations: one Send per chunk in a timed phase. Late-dropped tuples
  // fail (at most) one operation each; a subscriber that was cut off fails
  // every operation whose tuples it never received.
  for (auto& pr : producers_) {
    out.attempted += pr.attempted;
    out.failed += pr.failed;
  }
  const int64_t late =
      static_cast<int64_t>(final_metrics.Sum("saber_ingest_late_dropped_total"));
  out.failed = std::min(out.attempted, out.failed + late);
  const int64_t total = producers_[0].next_chunk * kChunkTuples * kProducers;
  if (!sub_ended) {
    const int64_t missed = (total - sink_->progress_tuples()) / kChunkTuples;
    out.failed = std::min(out.attempted, out.failed + std::max<int64_t>(0, missed));
  }

  // Output checks: the subscriber's rows against the benchmark's own filter
  // over the in-order stream (jitter inside the lateness must change
  // nothing), and the first rows against ReferenceEvaluate.
  const int64_t blocks = producers_[0].next_chunk / kChunksPerBlock;
  const CheckResult digest = CheckDigest(sink_->digest(), SelectDigest(block_, blocks));
  const saber::sql::Catalog catalog{{"Syn", saber::syn::SyntheticSchema()}};
  const CheckResult prefix = CheckPrefix(
      sink_->prefix(),
      ReferencePrefix(saber::sql::Parse(kRemoteSql, catalog).value(), block_, 16384),
      kTupleSize);
  std::fprintf(stderr, "check %-28s %s %s\n", "selection", digest.ok ? "ok" : "FAILED",
               digest.what.c_str());
  std::fprintf(stderr, "check %-28s %s %s\n", "selection reference prefix",
               prefix.ok ? "ok" : "FAILED", prefix.what.c_str());
  if (!drained || !removed || sub_error) {
    std::fprintf(stderr, "remote_select: drain %d remove %d subscriber error %d\n",
                 drained, removed, sub_error);
  }
  out.correct = digest.ok && prefix.ok && drained && removed && !sub_error;

  Layers& l = out.layers;
  for (auto& pr : producers_) l.gen_lag_ms_max = std::max(l.gen_lag_ms_max, pr.max_lag / 1e6);
  l.gen_blocked_ms_per_s = (b.send - a.send) / 1e6 / secs;
  l.net_subscriber_wait_ms_per_s = (b.wait - a.wait) / 1e6 / secs;
  l.sink_rows_per_s = static_cast<double>(b.rows - a.rows) / secs;
  l.sink_latency_p99_ms = BetterQuartile(SliceLatency(sinks, open, 0.99, nullptr), false);
  if (traced_) {
    const PromText pa(a.metrics), pb(b.metrics);
    auto delta = [&](const char* name, const std::string& filter = "") {
      return pb.Sum(name, filter) - pa.Sum(name, filter);
    };
    const double frames = delta("saber_net_tuple_frames_total");
    const double batches = delta("saber_net_result_batches_total");
    const double cycles = delta("saber_ingest_merge_cycles_total");
    l.net_frames_per_s = frames / secs;
    l.net_bytes_per_frame = frames > 0 ? delta("saber_net_tuple_bytes_total") / frames : 0;
    l.net_result_batches_per_s = batches / secs;
    l.net_rows_per_result_batch =
        batches > 0 ? static_cast<double>(b.rows - a.rows) / batches : 0;
    l.ingest_merge_cycles_per_s = cycles / secs;
    l.ingest_bytes_per_merge_cycle =
        cycles > 0 ? delta("saber_ingest_merged_bytes_total") / cycles : 0;
    l.ingest_backpressure_waits = delta("saber_ingest_backpressure_waits_total");
    l.ingest_watermark_stalls = final_metrics.Sum("saber_watermark_stalls_total") -
                                pa.Sum("saber_watermark_stalls_total");
    l.core_tasks_per_s = delta("saber_engine_tasks_total") / secs;
    l.cpu_tasks_per_s = delta("saber_engine_tasks_total", "processor=\"cpu\"") / secs;
    l.core_queue_depth_mean = depth_samples > 0 ? depth_sum / depth_samples : 0;
    l.core_task_latency_p50_ms =
        final_metrics.HistogramQuantile("saber_task_latency_nanos", 0.50) / 1e6;
    l.core_task_latency_p99_ms =
        final_metrics.HistogramQuantile("saber_task_latency_nanos", 0.99) / 1e6;
  }
  control_.Close();
  subscriber_.Close();
  server_->Stop();  // writes the server's trace
  if (traced_ && !trace_file_.empty()) {
    std::string engine_json;
    if (FILE* f = std::fopen(trace_file_.c_str(), "rb")) {
      char buf[1 << 16];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) engine_json.append(buf, n);
      std::fclose(f);
      std::remove(trace_file_.c_str());
    }
    l.FromTrace(engine_json);
    std::vector<const SpanLane*> lanes = {&sub_lane_, &sink_lane_};
    for (auto& pr : producers_) lanes.push_back(pr.lane.get());
    const std::string path = args_.out_dir + "/trace_remote_select.json";
    if (!WriteMergedTrace(path, engine_json, lanes)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  return out;
}

}  // namespace

Report RunRemoteSelect(const Args& args) {
  const std::vector<uint8_t> block = MakeBlock(args.seed, kBlockTuples);
  std::vector<std::vector<uint8_t>> shards;
  for (int p = 0; p < kProducers; ++p) {
    shards.push_back(saber::syn::GenerateDisorderedShard(
        kBlockTuples, p, kProducers, kRemoteJitter, BlockOptions(args.seed)));
  }
  // Producers + subscriber; the server runs 1 CPU worker and no device.
  PrintThreadBudget(kProducers + 1, 1, 0);
  Report report;
  if (!args.trace) {
    const Pass p = RemoteRun(args, block, shards, MakePlan(args.seconds), false).Run();
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
  const Plan half = MakePlan(args.seconds / 2.0);
  const Pass base = RemoteRun(args, block, shards, half, false).Run();
  Pass traced = RemoteRun(args, block, shards, half, true).Run();
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
