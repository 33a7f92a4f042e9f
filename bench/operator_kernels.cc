/// Operator-kernel bench: a row-at-a-time scalar baseline
/// (bench/scalar_baseline.h, tree-interpreted) vs the engine's CPU
/// operators (batch-at-a-time over compiled expressions), single threaded,
/// driving the batch operator function directly — no engine, no
/// dispatcher, no scheduler — so the measured ratio is pure
/// per-tuple-overhead elimination. Kernels: predicate selection
/// (SELECT_n-shaped, selectivity sweep), grouped aggregation (GROUP-BY with
/// WHERE), and the θ-join probe loop.
///
/// Before timing a combo, the bench runs both over every task of its input
/// and exits non-zero unless their TaskResults are byte-identical, so the
/// speedup always compares equal work.
///
/// Emits BENCH_operators.json for the perf trajectory; CI publishes it next
/// to BENCH_sched.json / BENCH_adaptive.json. With --check the binary exits
/// non-zero unless the engine operators are >= 1.5x the baseline's
/// tuples/s on the predicate-heavy selection and grouped-aggregation
/// kernels (median over interleaved iterations), making the speedup claim
/// CI-enforced.
///
/// Flags: --quick (CI-sized run), --check, --iters N, --out <path>.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cpu/cpu_operators.h"
#include "scalar_baseline.h"
#include "workloads/synthetic.h"

namespace saber::bench {
namespace {

/// One batch operator function: processes the task in `ctx` into `out`.
using ProcessFn = std::function<void(const TaskContext&, TaskResult*)>;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Predicate-heavy selection in the SELECT_n shape (§6.1): (n-1)
/// never-matching equality terms OR a threshold term that controls the
/// overall selectivity (a4 is uniform in [0, 100)).
ExprPtr SelectionPred(const Schema& s, int terms, int selectivity_pct) {
  std::vector<ExprPtr> ps;
  static const char* kAttrs[] = {"a2", "a3", "a5", "a6"};
  for (int i = 0; i < terms - 1; ++i) {
    ps.push_back(Eq(Col(s, kAttrs[i % 4]), Lit(int64_t{-1})));
  }
  ps.push_back(Lt(Col(s, "a4"), Lit(static_cast<int64_t>(selectivity_pct))));
  return Or(std::move(ps));
}

/// Calls fn(ctx) once per `task_tuples`-sized task over `data`.
template <typename Fn>
void ForEachSingleInputTask(const QueryDef& q, const std::vector<uint8_t>& data,
                            size_t task_tuples, Fn&& fn) {
  const Schema& s = q.input_schema[0];
  const size_t tsz = s.tuple_size();
  const size_t n = data.size() / tsz;
  int64_t prev_last_ts = -1;
  for (size_t i = 0; i < n; i += task_tuples) {
    const size_t m = std::min(task_tuples, n - i);
    TaskContext ctx;
    ctx.query = &q;
    ctx.num_inputs = 1;
    StreamBatch& b = ctx.input[0];
    b.data.seg1 = data.data() + i * tsz;
    b.data.len1 = m * tsz;
    b.tuple_size = tsz;
    b.first_index = static_cast<int64_t>(i);
    b.first_ts = TupleRef(b.data.seg1, &s).timestamp();
    b.last_ts = TupleRef(b.data.seg1 + (m - 1) * tsz, &s).timestamp();
    b.prev_last_ts = prev_last_ts;
    fn(ctx);
    prev_last_ts = b.last_ts;
  }
}

/// The single θ-join task joining the full batches (no history).
TaskContext JoinTask(const QueryDef& q, const std::vector<uint8_t>& left,
                     const std::vector<uint8_t>& right) {
  TaskContext ctx;
  ctx.query = &q;
  ctx.num_inputs = 2;
  auto fill = [&](int side, const std::vector<uint8_t>& src) {
    const Schema& sch = q.input_schema[side];
    const size_t tsz = sch.tuple_size();
    const size_t cnt = src.size() / tsz;
    StreamBatch& b = ctx.input[side];
    b.data.seg1 = src.data();
    b.data.len1 = cnt * tsz;
    b.tuple_size = tsz;
    b.first_index = 0;
    b.first_ts = TupleRef(src.data(), &sch).timestamp();
    b.last_ts = TupleRef(src.data() + (cnt - 1) * tsz, &sch).timestamp();
    b.prev_last_ts = -1;
  };
  fill(0, left);
  fill(1, right);
  return ctx;
}

bool SameTaskResult(const TaskResult& a, const TaskResult& b) {
  auto same_bytes = [](const ByteBuffer& x, const ByteBuffer& y) {
    return x.size() == y.size() &&
           (x.size() == 0 || std::memcmp(x.data(), y.data(), x.size()) == 0);
  };
  if (!same_bytes(a.complete, b.complete) ||
      !same_bytes(a.partials, b.partials) || a.panes.size() != b.panes.size() ||
      a.axis_p != b.axis_p || a.axis_q != b.axis_q) {
    return false;
  }
  for (size_t p = 0; p < a.panes.size(); ++p) {
    if (a.panes[p].pane_index != b.panes[p].pane_index ||
        a.panes[p].offset != b.panes[p].offset ||
        a.panes[p].length != b.panes[p].length) {
      return false;
    }
  }
  return true;
}

struct Combo {
  std::string kernel;
  int selectivity_pct;  // -1: n/a
  QueryDef query;
  std::vector<uint8_t> left;
  std::vector<uint8_t> right;  // join only
  bool gate = false;           // participates in the --check verdict
};

int Run(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  int iters = 0;
  std::string out = "BENCH_operators.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--check] [--iters N] [--out path]\n",
                   argv[0]);
      return 2;
    }
  }
  if (iters <= 0) iters = quick ? 3 : 5;
  const double min_seconds = quick ? 0.15 : 0.4;
  const size_t tuples = quick ? 256 * 1024 : 1024 * 1024;
  const size_t task_tuples = 32 * 1024;  // 1 MiB tasks of 32 B tuples
  const size_t join_tuples = quick ? 16 * 1024 : 32 * 1024;

  const Schema schema = syn::SyntheticSchema();
  const auto data = syn::Generate(tuples);
  const auto jleft = syn::Generate(join_tuples);
  syn::GeneratorOptions ropts;
  ropts.seed = 43;
  const auto jright = syn::Generate(join_tuples, ropts);

  std::vector<Combo> combos;
  // Selection: 8-term predicate, selectivity sweep. The 50% point is the
  // predicate-heavy gate kernel.
  for (int sel : {1, 25, 50, 75, 99}) {
    Combo c;
    c.kernel = "selection";
    c.selectivity_pct = sel;
    c.query = QueryBuilder(StrCat("sel", sel), schema)
                  .Where(SelectionPred(schema, 8, sel))
                  .Build();
    c.left = data;
    c.gate = sel == 50;
    combos.push_back(std::move(c));
  }
  // Grouped aggregation: GROUP-BY_64 behind the same predicate-heavy
  // 8-term WHERE (100 = no WHERE, isolating the key/accumulate path).
  for (int sel : {25, 75, 100}) {
    Combo c;
    c.kernel = "grouped-agg";
    c.selectivity_pct = sel;
    QueryBuilder b(StrCat("grp", sel), schema);
    b.Window(WindowDefinition::Count(1024, 1024));
    if (sel < 100) b.Where(SelectionPred(schema, 8, sel));
    b.GroupBy({Mod(Col(schema, "a4"), Lit(int64_t{64}))});
    b.Aggregate(AggregateFunction::kSum, Col(schema, "a1"));
    b.Aggregate(AggregateFunction::kCount, nullptr);
    c.query = b.Build();
    c.left = data;
    c.gate = sel == 75;
    combos.push_back(std::move(c));
  }
  // θ-join: JOIN_3 shape, match_mod controls output selectivity.
  for (int mod : {64, 512}) {
    Combo c;
    c.kernel = "theta-join";
    c.selectivity_pct = -1;
    c.query = syn::MakeJoin(3, WindowDefinition::Count(256, 256), mod);
    c.left = jleft;
    c.right = jright;
    combos.push_back(std::move(c));
  }

  PrintHeader("Operator kernels — scalar baseline vs engine operators "
              "(single-threaded)",
              {"kernel", "sel %", "scalar Mt/s", "engine Mt/s", "speedup"});

  std::vector<JsonObject> results;
  bool gates_ok = true;
  for (Combo& c : combos) {
    auto engine_op = MakeCpuOperator(&c.query);
    const ProcessFn baseline = [&c](const TaskContext& ctx, TaskResult* r) {
      ScalarProcessBatch(c.query, ctx, r);
    };
    const ProcessFn engine = [&engine_op](const TaskContext& ctx,
                                          TaskResult* r) {
      engine_op->ProcessBatch(ctx, r);
    };
    const bool join = c.kernel == "theta-join";
    // Calls fn(ctx) once per task of the combo's input.
    auto for_each_task = [&](auto&& fn) {
      if (join) {
        fn(JoinTask(c.query, c.left, c.right));
      } else {
        ForEachSingleInputTask(c.query, c.left, task_tuples, fn);
      }
    };

    // Equal work first: every task's result bytes must match.
    bool identical = true;
    for_each_task([&](const TaskContext& ctx) {
      TaskResult want, got;
      baseline(ctx, &want);
      engine(ctx, &got);
      identical = identical && SameTaskResult(want, got);
    });
    if (!identical) {
      std::fprintf(stderr,
                   "%s (sel %d): baseline and engine TaskResults differ\n",
                   c.kernel.c_str(), c.selectivity_pct);
      return 1;
    }

    // Tuples/s of `process` over repeated passes lasting >= min_seconds.
    int64_t tuples_per_pass = static_cast<int64_t>(
        c.left.size() / c.query.input_schema[0].tuple_size());
    if (join) {
      tuples_per_pass += static_cast<int64_t>(
          c.right.size() / c.query.input_schema[1].tuple_size());
    }
    auto time = [&](const ProcessFn& process) {
      TaskResult result;
      int64_t processed = 0;
      Stopwatch wall;
      do {
        for_each_task([&](const TaskContext& ctx) {
          result.Reset();
          process(ctx, &result);
        });
        processed += tuples_per_pass;
      } while (wall.ElapsedSeconds() < min_seconds);
      return static_cast<double>(processed) / wall.ElapsedSeconds();
    };
    std::vector<double> st, vt;
    for (int it = 0; it < iters; ++it) {  // interleaved A/B iterations
      st.push_back(time(baseline));
      vt.push_back(time(engine));
    }
    const double sm = Median(st), vm = Median(vt);
    const double speedup = sm > 0 ? vm / sm : 0.0;
    if (c.gate && speedup < 1.5) gates_ok = false;
    PrintCell(c.kernel);
    PrintCell(c.selectivity_pct >= 0 ? std::to_string(c.selectivity_pct) : "-");
    PrintCell(sm / 1e6);
    PrintCell(vm / 1e6);
    PrintCell(speedup);
    EndRow();
    JsonObject rec;
    rec.Str("kernel", c.kernel)
        .Int("selectivity_pct", c.selectivity_pct)
        .Num("scalar_tuples_per_s", sm)
        .Num("vectorized_tuples_per_s", vm)
        .Num("speedup", speedup)
        .Bool("gate", c.gate);
    results.push_back(std::move(rec));
  }

  std::printf(
      "\nBoth sides run the batch operator function directly on one thread,\n"
      "with byte-identical TaskResults: the ratio is interpreter-overhead\n"
      "elimination, not parallelism. The gate kernels (selection @50%%,\n"
      "grouped-agg @75%%) must hold >= 1.5x.\n");
  std::printf("kernel gates: %s\n", gates_ok ? "OK" : "FAILED");

  JsonObject meta;
  meta.Int("tuples", static_cast<int64_t>(tuples))
      .Int("task_tuples", static_cast<int64_t>(task_tuples))
      .Int("iters", iters)
      .Bool("quick", quick)
      .Bool("gates_ok", gates_ok);
  if (!WriteBenchJson(out, "operator_kernels", meta, results)) return 1;
  return (check && !gates_ok) ? 1 : 0;
}

}  // namespace
}  // namespace saber::bench

int main(int argc, char** argv) { return saber::bench::Run(argc, argv); }
