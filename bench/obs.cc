#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "workloads/synthetic.h"

/// \file obs.cc
/// Observability overhead benchmark, in two parts:
///
///  1. Instrument hot path. The migration moved every per-event counter from
///     a bare `std::atomic<int64_t>::fetch_add` to `obs::Counter::Increment`
///     — by design the very same relaxed fetch_add behind a class. The bench
///     times both in interleaved repetitions (rep k of A runs next to rep k
///     of B, so frequency drift hits both) and gates their min-of-reps ratio
///     at 1.03: the migrated counter may cost at most 3% over the pre-change
///     representation. Histogram::Record is reported alongside (it is a new
///     capability, not a migration, so it carries no gate).
///
///  2. Task-path tracing. With `trace_sample_rate = 0` the engine does not
///     construct the ring and the per-task cost is one pointer test; the
///     bench drives the small-φ scheduling-bound workload of
///     sched_hot_path.cc at sampling rates {0, 0.01, 1.0} and gates the 1%
///     rate at >= 80% of the trace-off throughput (the disabled rate is the
///     baseline — if sampling 1% of tasks costs a fifth of the throughput,
///     the stamps leaked into the wrong place).
///
/// Flags: --quick (CI-sized run), --check (enforce the gates), --out <path>.
/// Emits BENCH_obs.json.

namespace saber::bench {
namespace {

/// Keeps `v` observable so the timed loops cannot be folded away.
inline void DoNotOptimize(int64_t v) {
  asm volatile("" : : "r"(v) : "memory");
}

struct HotPathResult {
  double raw_ns = 0;        // std::atomic fetch_add, per op
  double counter_ns = 0;    // obs::Counter::Increment, per op
  double histogram_ns = 0;  // obs::Histogram::Record, per op
};

HotPathResult BenchHotPath(int64_t iters, int reps) {
  std::atomic<int64_t> raw{0};
  obs::Counter counter;
  obs::Histogram hist;
  HotPathResult best;
  best.raw_ns = best.counter_ns = best.histogram_ns = 1e18;
  // Interleaved: rep k of every contender runs back to back, so thermal /
  // frequency drift cannot systematically favor one side.
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    for (int64_t i = 0; i < iters; ++i) raw.fetch_add(1, std::memory_order_relaxed);
    best.raw_ns = std::min(
        best.raw_ns, static_cast<double>(sw.ElapsedNanos()) / static_cast<double>(iters));
    DoNotOptimize(raw.load());

    sw.Restart();
    for (int64_t i = 0; i < iters; ++i) counter.Increment();
    best.counter_ns = std::min(
        best.counter_ns, static_cast<double>(sw.ElapsedNanos()) / static_cast<double>(iters));
    DoNotOptimize(counter.value());

    sw.Restart();
    for (int64_t i = 0; i < iters; ++i) hist.Record(i & 0xfffff);
    best.histogram_ns = std::min(
        best.histogram_ns, static_cast<double>(sw.ElapsedNanos()) / static_cast<double>(iters));
    DoNotOptimize(hist.sum());
  }
  return best;
}

double BenchEngine(double trace_rate, const std::vector<uint8_t>& data,
                   int repeats) {
  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = false;
  o.task_size = 16 << 10;  // small φ: per-task overheads dominate
  o.input_buffer_size = size_t{8} << 20;
  o.trace_sample_rate = trace_rate;
  const RunResult r =
      RunSaber(o, syn::MakeProjection(1), data, repeats);
  return r.mtuples();
}

int Run(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string out = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--check] [--out path]\n",
                   argv[0]);
      return 2;
    }
  }

  const int64_t iters = quick ? 20'000'000 : 100'000'000;
  const int reps = quick ? 3 : 5;
  const HotPathResult hot = BenchHotPath(iters, reps);
  const double counter_ratio =
      hot.raw_ns > 0 ? hot.counter_ns / hot.raw_ns : 0.0;

  PrintHeader("instrument hot path (min of interleaved reps)",
              {"op", "ns/op"});
  PrintCell(std::string("atomic fetch_add"));
  PrintCell(hot.raw_ns);
  EndRow();
  PrintCell(std::string("Counter::Increment"));
  PrintCell(hot.counter_ns);
  EndRow();
  PrintCell(std::string("Histogram::Record"));
  PrintCell(hot.histogram_ns);
  EndRow();
  std::printf("counter/raw ratio: %.3f (gate <= 1.03)\n", counter_ratio);

  // Tracing: interleaved best-of-reps across the three sampling rates. Runs
  // must be long enough that engine start/drain noise does not swamp the
  // per-task cost under measurement.
  const size_t tuples = quick ? 400'000 : 800'000;
  const int feed_repeats = quick ? 2 : 3;
  const int engine_reps = 3;
  const auto data = syn::Generate(tuples);
  double off = 0, pct1 = 0, full = 0;
  for (int rep = 0; rep < engine_reps; ++rep) {
    off = std::max(off, BenchEngine(0.0, data, feed_repeats));
    pct1 = std::max(pct1, BenchEngine(0.01, data, feed_repeats));
    full = std::max(full, BenchEngine(1.0, data, feed_repeats));
  }
  const double trace_ratio = off > 0 ? pct1 / off : 0.0;

  PrintHeader("task-path tracing (best of interleaved reps)",
              {"sample rate", "Mtuples/s"});
  PrintCell(std::string("off"));
  PrintCell(off);
  EndRow();
  PrintCell(std::string("0.01"));
  PrintCell(pct1);
  EndRow();
  PrintCell(std::string("1.0"));
  PrintCell(full);
  EndRow();
  std::printf("trace 1%% / off ratio: %.3f (gate >= 0.80)\n", trace_ratio);

  std::vector<JsonObject> results;
  JsonObject hot_rec;
  hot_rec.Str("metric", "instrument_hot_path")
      .Num("raw_fetch_add_ns", hot.raw_ns)
      .Num("counter_increment_ns", hot.counter_ns)
      .Num("histogram_record_ns", hot.histogram_ns)
      .Num("counter_ratio", counter_ratio);
  results.push_back(std::move(hot_rec));
  JsonObject trace_rec;
  trace_rec.Str("metric", "trace_sampling")
      .Num("mtuples_trace_off", off)
      .Num("mtuples_trace_1pct", pct1)
      .Num("mtuples_trace_full", full)
      .Num("trace_1pct_ratio", trace_ratio);
  results.push_back(std::move(trace_rec));

  JsonObject meta;
  meta.Int("hot_path_iters", iters)
      .Int("hot_path_reps", reps)
      .Int("tuples", static_cast<int64_t>(tuples))
      .Bool("quick", quick);
  if (!WriteBenchJson(out, "obs", meta, results)) return 1;

  if (check) {
    bool ok = true;
    if (counter_ratio > 1.03) {
      std::fprintf(stderr,
                   "CHECK FAILED: Counter::Increment %.3fx a raw relaxed "
                   "fetch_add (gate: <= 1.03x)\n",
                   counter_ratio);
      ok = false;
    }
    if (trace_ratio < 0.80) {
      std::fprintf(stderr,
                   "CHECK FAILED: 1%% trace sampling dropped throughput to "
                   "%.3fx of tracing-off (gate: >= 0.80x)\n",
                   trace_ratio);
      ok = false;
    }
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace saber::bench

int main(int argc, char** argv) { return saber::bench::Run(argc, argv); }
