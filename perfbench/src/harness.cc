#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "runtime/clock.h"

namespace perfbench {

Plan MakePlan(double seconds) {
  Plan p;
  p.warmup_s = std::clamp(0.2 * seconds, 1.0, 4.0);
  p.saturated_s = 0.5 * seconds;
  p.open_s = 0.5 * seconds;
  return p;
}

void SleepUntil(int64_t deadline_nanos) {
  // steady_clock (saber::NowNanos) is CLOCK_MONOTONIC on Linux.
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_nanos / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline_nanos % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {
int64_t ClockNanos(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

int64_t ProcessCpuNanos() { return ClockNanos(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ChildCpuNanos(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(line.substr(close + 2));
  std::string tok;
  int64_t utime = 0, stime = 0;
  // Field 3 (state) comes first after the command; utime/stime are 14/15.
  for (int field = 3; field <= 15 && fields >> tok; ++field) {
    if (field == 14) utime = std::stoll(tok);
    if (field == 15) stime = std::stoll(tok);
  }
  const int64_t hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000 / hz);
}

double PeakRssMiB(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int64_t FieldInt(const uint8_t* row, const saber::Field& f) {
  switch (f.type) {
    case saber::DataType::kInt32: {
      int32_t v;
      std::memcpy(&v, row + f.offset, sizeof(v));
      return v;
    }
    case saber::DataType::kInt64: {
      int64_t v;
      std::memcpy(&v, row + f.offset, sizeof(v));
      return v;
    }
    default:
      return static_cast<int64_t>(FieldDouble(row, f));
  }
}

double FieldDouble(const uint8_t* row, const saber::Field& f) {
  switch (f.type) {
    case saber::DataType::kFloat: {
      float v;
      std::memcpy(&v, row + f.offset, sizeof(v));
      return v;
    }
    case saber::DataType::kDouble: {
      double v;
      std::memcpy(&v, row + f.offset, sizeof(v));
      return v;
    }
    default:
      return static_cast<double>(FieldInt(row, f));
  }
}

void CopyShifted(const std::vector<uint8_t>& block, size_t local, size_t n,
                 int64_t shift, uint8_t* out) {
  std::memcpy(out, block.data() + local * kTupleSize, n * kTupleSize);
  if (shift == 0) return;
  for (size_t i = 0; i < n; ++i) {
    int64_t ts;
    std::memcpy(&ts, out + i * kTupleSize, sizeof(ts));
    ts += shift;
    std::memcpy(out + i * kTupleSize, &ts, sizeof(ts));
  }
}

void SpanLane::AppendChromeEvents(std::string* out, bool* first) const {
  char buf[256];
  for (const auto& [b, e] : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                  "\"pid\":2,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                  *first ? "" : ",\n", name_.c_str(), tid_, b / 1000.0,
                  (e - b) / 1000.0);
    *out += buf;
    *first = false;
  }
}

void RowDigest::Add(const uint8_t* row, size_t size) {
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, row + i, sizeof(w));
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < size; ++i) h = (h ^ row[i]) * 0x100000001b3ULL;
  hash = hash * 0x9e3779b97f4a7c15ULL + (h ^ (h >> 32));
  ++rows;
}

Sink::Sink(const saber::Schema& schema, Keep keep, const DueTable* due,
           SpanLane* lane)
    : schema_(schema), row_size_(schema.tuple_size()), keep_(keep), due_(due),
      lane_(lane) {
  // Address space only: pages are touched as rows arrive. Growing a large
  // vector inside the sink would copy it on an engine worker and stall the
  // pipeline for milliseconds.
  if (keep_ == Keep::kAll) all_.reserve(size_t{512} << 20);
  windows_.reserve(size_t{1} << 20);
  latency_.reserve(size_t{4} << 20);
  history_.reserve(size_t{4} << 20);
}

void Sink::OnBatch(const uint8_t* data, size_t bytes) {
  const int64_t arrival = saber::NowNanos();
  const size_t n = bytes / row_size_;
  const int64_t pos0 = rows_.load(std::memory_order_relaxed);
  int64_t max_ts = max_ts_.load(std::memory_order_relaxed);
  int64_t prev_ts = -1;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* row = data + i * row_size_;
    int64_t ts;
    std::memcpy(&ts, row, sizeof(ts));
    if (ts != prev_ts) {
      // One latency sample per timestamp run in a batch: every row of the
      // run shares the due time and the arrival.
      prev_ts = ts;
      max_ts = std::max(max_ts, ts);
      const int64_t due = due_ != nullptr ? due_->GroupDue(ts) : -1;
      if (due >= 0) latency_.emplace_back(due, (arrival - due) / 1e6);
    }
    if (keep_ == Keep::kDigest || keep_ == Keep::kWindowDigest) {
      digest_.Add(row, row_size_);
    }
    if (keep_ == Keep::kWindowDigest) {
      // A window's rows may straddle two batches.
      if (windows_.empty() || windows_.back().first != ts) {
        windows_.emplace_back(ts, 0);
      }
      windows_.back().second += FieldInt(row, schema_.field(2));
    } else if (keep_ == Keep::kSample &&
               (pos0 + static_cast<int64_t>(i)) % kSampleStride == 0) {
      samples_.emplace_back(pos0 + static_cast<int64_t>(i),
                            std::vector<uint8_t>(row, row + row_size_));
    }
  }
  const size_t prefix_cap = kPrefixRows * row_size_;
  if (prefix_.size() < prefix_cap) {
    const size_t take = std::min(prefix_cap - prefix_.size(), n * row_size_);
    prefix_.insert(prefix_.end(), data, data + take);
  }
  if (keep_ == Keep::kAll) all_.insert(all_.end(), data, data + n * row_size_);
  rows_.store(pos0 + static_cast<int64_t>(n), std::memory_order_relaxed);
  max_ts_.store(max_ts, std::memory_order_release);
  history_.emplace_back(arrival, (max_ts + 1) * kTuplesPerTs);
  if (lane_ != nullptr) lane_->Record(arrival, saber::NowNanos());
}

int64_t HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v[8] = {0};
  in >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  return v[7];  // user nice system idle iowait irq softirq steal
}

double BetterQuartile(std::vector<double> per_slice, bool higher_is_better) {
  per_slice.erase(std::remove_if(per_slice.begin(), per_slice.end(),
                                 [](double v) { return std::isnan(v); }),
                  per_slice.end());
  if (per_slice.empty()) return NAN;
  return Quantile(std::move(per_slice), higher_is_better ? 0.75 : 0.25);
}

void PrintSlices(const char* what, const Slices& slices,
                 const std::vector<double>& per_slice) {
  std::fprintf(stderr, "%s by slice (host steal ticks):", what);
  for (size_t i = 0; i < per_slice.size() && i < slices.steal.size(); ++i) {
    std::fprintf(stderr, " %.4g(%lld)", per_slice[i],
                 static_cast<long long>(slices.steal[i]));
  }
  std::fprintf(stderr, "\n");
}

std::vector<double> SliceRates(const std::vector<const Sink*>& sinks,
                               const Slices& slices) {
  std::vector<double> rates;
  for (int i = 0; i < slices.count(); ++i) {
    const int64_t a = slices.begin(i), b = slices.begin(i + 1);
    double rate = 0;
    bool any = false;
    for (const Sink* s : sinks) {
      const auto& h = s->history();
      auto first = std::lower_bound(h.begin(), h.end(), std::make_pair(a, int64_t{0}));
      auto last = std::lower_bound(h.begin(), h.end(), std::make_pair(b, int64_t{0}));
      if (first == h.end() || last == h.begin() || first >= last - 1) continue;
      --last;
      rate += static_cast<double>(last->second - first->second) /
              ((last->first - first->first) / 1e9);
      any = true;
    }
    rates.push_back(any ? rate : NAN);
  }
  return rates;
}

std::vector<double> SliceLatency(const std::vector<const Sink*>& sinks,
                                 const Slices& slices, double q, size_t* count) {
  std::vector<std::vector<double>> per(static_cast<size_t>(slices.count()));
  size_t n = 0;
  for (const Sink* s : sinks) {
    for (const auto& [due, ms] : s->latency()) {
      if (due < slices.from || due >= slices.begin(slices.count())) continue;
      per[static_cast<size_t>((due - slices.from) / slices.len)].push_back(ms);
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  std::vector<double> out;
  for (auto& v : per) out.push_back(v.empty() ? NAN : Quantile(std::move(v), q));
  return out;
}

PromText::PromText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string value = line.substr(sp + 1);
    double v = 0;
    if (value == "+Inf") {
      v = HUGE_VAL;
    } else {
      v = std::strtod(value.c_str(), nullptr);
    }
    series_.emplace_back(line.substr(0, sp), v);
  }
}

namespace {
bool SeriesIs(const std::string& key, const std::string& name) {
  return key.size() >= name.size() && key.compare(0, name.size(), name) == 0 &&
         (key.size() == name.size() || key[name.size()] == '{');
}
}  // namespace

double PromText::Sum(const std::string& name, const std::string& filter) const {
  double sum = 0;
  for (const auto& [key, v] : series_) {
    if (SeriesIs(key, name) &&
        (filter.empty() || key.find(filter) != std::string::npos)) {
      sum += v;
    }
  }
  return sum;
}

double PromText::HistogramQuantile(const std::string& name, double q) const {
  std::map<double, double> cum;  // upper bound -> cumulative count
  const std::string bucket = name + "_bucket";
  for (const auto& [key, v] : series_) {
    if (!SeriesIs(key, bucket)) continue;
    const size_t le = key.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string bound = key.substr(le + 4, key.find('"', le + 4) - le - 4);
    cum[bound == "+Inf" ? HUGE_VAL : std::strtod(bound.c_str(), nullptr)] += v;
  }
  if (cum.empty() || cum.rbegin()->second <= 0) return 0.0;
  const double target = q * cum.rbegin()->second;
  double prev_bound = 0, prev_count = 0;
  for (const auto& [bound, count] : cum) {
    if (count >= target) {
      if (std::isinf(bound)) return prev_bound;
      const double in_bucket = count - prev_count;
      const double frac = in_bucket > 0 ? (target - prev_count) / in_bucket : 1;
      return prev_bound + (bound - prev_bound) * frac;
    }
    prev_bound = bound;
    prev_count = count;
  }
  return prev_bound;
}

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval tv{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[65536];
      ssize_t got;
      while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        body.append(buf, static_cast<size_t>(got));
      }
    }
  }
  ::close(fd);
  const size_t header_end = body.find("\r\n\r\n");
  return header_end == std::string::npos ? "" : body.substr(header_end + 4);
}

std::map<std::string, std::vector<double>> TraceStageMicros(
    const std::string& json) {
  std::map<std::string, std::vector<double>> out;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    pos += 9;
    const size_t name_end = json.find('"', pos);
    const size_t event_end = json.find("}}", pos);
    if (name_end == std::string::npos || event_end == std::string::npos) break;
    const std::string name = json.substr(pos, name_end - pos);
    const size_t dur = json.find("\"dur\":", pos);
    const size_t backend = json.find("\"backend\":\"", pos);
    if (dur != std::string::npos && dur < event_end) {
      const double us = std::strtod(json.c_str() + dur + 6, nullptr);
      out[name].push_back(us);
      if (backend != std::string::npos && backend < event_end) {
        out[name + "/" + json.substr(backend + 11, 3)].push_back(us);
      }
    }
    pos = event_end;
  }
  return out;
}

bool WriteMergedTrace(const std::string& path, const std::string& engine_json,
                      const std::vector<const SpanLane*>& lanes) {
  std::string doc = "{\"traceEvents\":[\n";
  bool first = true;
  const std::string open = "\"traceEvents\":[";
  const size_t begin = engine_json.find(open);
  const size_t end = engine_json.rfind("\n]");
  if (begin != std::string::npos && end != std::string::npos &&
      end > begin + open.size()) {
    const std::string events =
        engine_json.substr(begin + open.size(), end - begin - open.size());
    if (events.find('{') != std::string::npos) {
      doc += events;
      first = false;
    }
  }
  for (const SpanLane* lane : lanes) lane->AppendChromeEvents(&doc, &first);
  doc += "\n],\"displayTimeUnit\":\"ms\"}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Layers::FromTrace(const std::string& chrome_json) {
  const auto stages = TraceStageMicros(chrome_json);
  auto p50 = [&](const char* stage) {
    const auto it = stages.find(stage);
    return it == stages.end() ? 0.0 : Median(it->second);
  };
  core_dispatch_us_p50 = p50("dispatch");
  core_queue_wait_us_p50 = p50("queue-wait");
  cpu_execute_us_p50 = p50("execute/cpu");
  gpu_execute_us_p50 = p50("execute/gpu");
  cpu_assembly_us_p50 = p50("assembly");
  sink_us_p50 = p50("sink");
}

void Report::Add(const EndToEnd& e) {
  Add("throughput_mtps", e.throughput_mtps, "Mtuples/s");
  Add("latency_p50_ms", e.latency_p50_ms, "ms");
  Add("latency_p95_ms", e.latency_p95_ms, "ms");
  Add("cpu_ns_per_tuple", e.cpu_ns_per_tuple, "ns");
  Add("setup_s", e.setup_s, "s");
  Add("rss_peak_mb", e.rss_peak_mb, "MiB");
}

void Report::Add(const Layers& l) {
  Add("gen.lag_ms_max", l.gen_lag_ms_max, "ms");
  Add("gen.blocked_ms_per_s", l.gen_blocked_ms_per_s, "ms/s");
  Add("net.frames_per_s", l.net_frames_per_s, "1/s");
  Add("net.bytes_per_frame", l.net_bytes_per_frame, "B");
  Add("net.result_batches_per_s", l.net_result_batches_per_s, "1/s");
  Add("net.rows_per_result_batch", l.net_rows_per_result_batch, "count");
  Add("net.subscriber_wait_ms_per_s", l.net_subscriber_wait_ms_per_s, "ms/s");
  Add("ingest.merge_cycles_per_s", l.ingest_merge_cycles_per_s, "1/s");
  Add("ingest.bytes_per_merge_cycle", l.ingest_bytes_per_merge_cycle, "B");
  Add("ingest.backpressure_waits", l.ingest_backpressure_waits, "count");
  Add("ingest.watermark_stalls", l.ingest_watermark_stalls, "count");
  Add("core.tasks_per_s", l.core_tasks_per_s, "1/s");
  Add("core.queue_depth_mean", l.core_queue_depth_mean, "tasks");
  Add("core.task_latency_p50_ms", l.core_task_latency_p50_ms, "ms");
  Add("core.task_latency_p99_ms", l.core_task_latency_p99_ms, "ms");
  Add("core.dispatch_us_p50", l.core_dispatch_us_p50, "us");
  Add("core.queue_wait_us_p50", l.core_queue_wait_us_p50, "us");
  Add("core.gpu_share_q0", l.core_gpu_share_q0, "ratio");
  Add("core.gpu_share_q1", l.core_gpu_share_q1, "ratio");
  Add("cpu.tasks_per_s", l.cpu_tasks_per_s, "1/s");
  Add("cpu.execute_us_p50", l.cpu_execute_us_p50, "us");
  Add("cpu.assembly_us_p50", l.cpu_assembly_us_p50, "us");
  Add("gpu.tasks_per_s", l.gpu_tasks_per_s, "1/s");
  Add("gpu.execute_us_p50", l.gpu_execute_us_p50, "us");
  Add("gpu.task_retries", l.gpu_task_retries, "count");
  Add("gpu.copyin_ms_per_s", l.gpu_copyin_ms_per_s, "ms/s");
  Add("gpu.movein_ms_per_s", l.gpu_movein_ms_per_s, "ms/s");
  Add("gpu.execute_ms_per_s", l.gpu_execute_ms_per_s, "ms/s");
  Add("gpu.moveout_ms_per_s", l.gpu_moveout_ms_per_s, "ms/s");
  Add("gpu.copyout_ms_per_s", l.gpu_copyout_ms_per_s, "ms/s");
  Add("sink.us_p50", l.sink_us_p50, "us");
  Add("sink.rows_per_s", l.sink_rows_per_s, "1/s");
  Add("sink.latency_p99_ms", l.sink_latency_p99_ms, "ms");
  Add("trace.overhead_pct", l.trace_overhead_pct, "%");
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {",
                attempted, failed);
  out += buf;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    // JSON has no NaN/Inf; a metric that could not be measured reads 0.
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), v, vu.second.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

void PrintThreadBudget(int generator_threads, int cpu_workers,
                       int device_executors) {
  std::fprintf(stderr,
               "thread budget: generator %d + cpu workers %d + device "
               "executors %d = %d (nproc %u)\n",
               generator_threads, cpu_workers, device_executors,
               generator_threads + cpu_workers + device_executors,
               std::thread::hardware_concurrency());
}

}  // namespace perfbench
