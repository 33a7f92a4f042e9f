/// Figure 7: throughput for the application benchmark queries (CM1-2, SG1-3,
/// LRB1-4) — SABER with its CPU/GPGPU contribution split versus the
/// Esper-like global-lock baseline. Expected shape: SABER exceeds the
/// baseline by >= an order of magnitude on every query; the GPGPU share
/// varies per query (§6.2: CM1 leans CPU, CM2's selection leans GPGPU, SG2
/// and LRB3 split the load).

#include "baselines/global_lock_engine.h"
#include "bench_util.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/linear_road.h"
#include "workloads/smart_grid.h"

using namespace saber;
using namespace saber::bench;

namespace {

struct Row {
  std::string name;
  RunResult saber;
  double baseline_mtps;
};

/// Runs a chain of queries; throughput is accounted on the first query.
RunResult RunChain(std::vector<QueryDef> defs,
                   const std::vector<std::pair<int, int>>& connects,  // (from,to<<8|input)
                   const std::vector<uint8_t>& data, int repeats,
                   int fan_in = 1) {
  EngineOptions o = DefaultOptions();
  Engine engine(o);
  std::vector<QueryHandle*> handles;
  for (auto& d : defs) handles.push_back(engine.AddQuery(std::move(d)));
  for (auto [from, packed] : connects) {
    engine.Connect(handles[from], handles[packed >> 8], packed & 0xff);
  }
  engine.Start();
  Stopwatch wall;
  StreamFeeder feeder(handles[0]->def().input_schema[0], data);
  for (int rep = 0; rep < repeats; ++rep) {
    for (int f = 0; f < fan_in; ++f) feeder.Feed(handles[f], 0, 1);
  }
  engine.Drain();
  RunResult r = Collect(handles[0], wall.ElapsedSeconds());
  return r;
}

}  // namespace

int main() {
  std::vector<Row> rows;

  // --- Cluster monitoring ---------------------------------------------------
  {
    cm::TraceOptions t;
    t.events_per_second = 100'000;
    auto trace = cm::GenerateTrace(2'000'000, t);  // 20 s, 128 MB
    for (auto [name, def] : {std::pair<std::string, QueryDef>{"CM1", cm::MakeCM1()},
                             {"CM2", cm::MakeCM2()}}) {
      RunResult sr = RunSaber(DefaultOptions(), def, trace, 3);
      auto gl = GlobalLockEngine(8).Run(def, trace);
      rows.push_back({name, sr, gl.tuples_per_second() / 1e6});
    }
  }

  // --- Smart grid -----------------------------------------------------------
  {
    sg::GridOptions g;
    g.readings_per_second = 200'000;
    auto readings = sg::GenerateReadings(4'000'000, g);  // 20 s, 128 MB
    QueryDef sg1 = sg::MakeSG1(10, 1);  // windows scaled to the trace span
    QueryDef sg2 = sg::MakeSG2(10, 1);
    {
      RunResult sr = RunSaber(DefaultOptions(), sg1, readings, 3);
      auto gl = GlobalLockEngine(8).Run(sg1, readings);
      rows.push_back({"SG1", sr, gl.tuples_per_second() / 1e6});
    }
    {
      RunResult sr = RunSaber(DefaultOptions(), sg2, readings, 3);
      auto gl = GlobalLockEngine(8).Run(sg2, readings);
      rows.push_back({"SG2", sr, gl.tuples_per_second() / 1e6});
    }
    {
      // SG3: full operator graph; baseline runs its dominant input (SG2).
      sg::SG3Queries sg3 = sg::MakeSG3(sg1, sg2);
      EngineOptions o = DefaultOptions();
      Engine engine(o);
      QueryHandle* h1 = engine.AddQuery(sg1);
      QueryHandle* h2 = engine.AddQuery(sg2);
      QueryHandle* hj = engine.AddQuery(sg3.join);
      QueryHandle* hc = engine.AddQuery(sg3.count);
      engine.Connect(h1, hj, 0);
      engine.Connect(h2, hj, 1);
      engine.Connect(hj, hc, 0);
      engine.Start();
      Stopwatch wall;
      StreamFeeder feeder(h1->def().input_schema[0], readings);
      for (int rep = 0; rep < 2; ++rep) {
        feeder.Feed(h1, 0, 1);
        feeder.Feed(h2, 0, 1);
      }
      engine.Drain();
      RunResult sr = Collect(h2, wall.ElapsedSeconds());
      sr.bytes_in += h1->bytes_in();
      sr.tuples_in += h1->tuples_in();
      auto gl = GlobalLockEngine(8).Run(sg2, readings);
      rows.push_back({"SG3", sr, gl.tuples_per_second() / 1e6});
    }
  }

  // --- Linear Road ----------------------------------------------------------
  {
    lrb::RoadOptions r;
    r.reports_per_second = 200'000;
    auto reports = lrb::GenerateReports(4'000'000, r);  // 20 s, 128 MB
    {
      QueryDef d = lrb::MakeLRB1();
      RunResult sr = RunSaber(DefaultOptions(), d, reports, 3);
      auto gl = GlobalLockEngine(8).Run(d, reports);
      rows.push_back({"LRB1", sr, gl.tuples_per_second() / 1e6});
    }
    {
      // LRB2 substitutes the paper's partition window with a self-join
      // (workloads/linear_road.h); the join scans the full 30 s window per element, so it
      // runs on a proportionally scaled slice.
      lrb::RoadOptions r2 = r;
      r2.reports_per_second = 4'000;
      auto small = lrb::GenerateReports(60'000, r2);  // 15 s at 4k/s
      QueryDef d = lrb::MakeLRB2();
      RunResult sr = RunSaberJoin(DefaultOptions(), d, small, small);
      auto gl = GlobalLockEngine(8).Run(lrb::MakeLRB1(), small);  // proxy
      rows.push_back({"LRB2", sr, gl.tuples_per_second() / 1e6});
    }
    {
      QueryDef d = lrb::MakeLRB3(10, 1);
      RunResult sr = RunSaber(DefaultOptions(), d, reports, 3);
      auto gl = GlobalLockEngine(8).Run(d, reports);
      rows.push_back({"LRB3", sr, gl.tuples_per_second() / 1e6});
    }
    {
      lrb::LRB4Queries q4 = lrb::MakeLRB4();
      RunResult sr = RunChain({q4.inner, q4.outer}, {{0, (1 << 8) | 0}},
                              reports, 3);
      auto gl = GlobalLockEngine(8).Run(q4.inner, reports);
      rows.push_back({"LRB4", sr, gl.tuples_per_second() / 1e6});
    }
  }

  PrintHeader("Fig. 7 — application queries: SABER vs global-lock baseline",
              {"query", "SABER Mt/s", "SABER GB/s", "GPGPU share", "Esper-like Mt/s",
               "speedup"});
  for (const Row& r : rows) {
    PrintCell(r.name);
    PrintCell(r.saber.mtuples());
    PrintCell(r.saber.gbps());
    PrintCell(r.saber.gpu_share());
    PrintCell(r.baseline_mtps);
    PrintCell(r.baseline_mtps > 0 ? r.saber.mtuples() / r.baseline_mtps : 0);
    EndRow();
  }
  std::printf("\nExpected shape: SABER >> baseline on every query (the paper "
              "reports ~2 orders of magnitude); GPGPU share varies by "
              "operator mix (Fig. 7).\n");
  return 0;
}
