#include <gtest/gtest.h>

#include "core/engine.h"
#include "reference/reference.h"
#include "test_util.h"
#include "workloads/linear_road.h"
#include "workloads/synthetic.h"

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::RandomStream;

EngineOptions FastOptions(int cpu, bool gpu) {
  EngineOptions o;
  o.num_cpu_workers = cpu;
  o.use_gpu = gpu;
  o.device.pace_transfers = false;
  o.task_size = 4096;
  return o;
}

ByteBuffer RunOnce(const EngineOptions& o, QueryDef def,
                   const std::vector<uint8_t>& stream, size_t chunk_tuples) {
  Engine engine(o);
  QueryHandle* q = engine.AddQuery(std::move(def));
  ByteBuffer out;
  q->SetSink([&](const uint8_t* d, size_t n) { out.Append(d, n); });
  engine.Start();
  const size_t tsz = q->def().input_schema[0].tuple_size();
  const size_t chunk = chunk_tuples * tsz;
  for (size_t off = 0; off < stream.size(); off += chunk) {
    q->Insert(stream.data() + off, std::min(chunk, stream.size() - off));
  }
  engine.Drain();
  return out;
}

TEST(EngineSemantics, UnboundedWindowProjection) {
  // LRB1-style: `range unbounded` makes a projection purely per-tuple.
  auto data = lrb::GenerateReports(5000);
  QueryDef q = lrb::MakeLRB1();
  ByteBuffer want = ReferenceEvaluate(q, data);
  ByteBuffer got = RunOnce(FastOptions(3, true), q, data, 333);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_EQ(got.size() / q.output_schema.tuple_size(), 5000u);
}

TEST(EngineSemantics, HavingFiltersThroughEngine) {
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeGroupBy(8, WindowDefinition::Count(512, 128));
  q.having = Gt(Col(q.output_schema, "cnt"), Lit(70.0));
  auto data = syn::Generate(20000);
  ByteBuffer want = ReferenceEvaluate(q, data);
  ByteBuffer got = RunOnce(FastOptions(3, true), q, data, 777);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  const int cnt_idx = q.output_schema.FieldIndex("cnt");
  for (size_t off = 0; off < got.size(); off += q.output_schema.tuple_size()) {
    TupleRef r(got.data() + off, &q.output_schema);
    EXPECT_GT(r.GetDouble(cnt_idx), 70.0);
  }
}

TEST(EngineSemantics, OutputIdenticalAcrossWorkerCounts) {
  // The paper's core invariant: parallelism degree never changes results.
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeGroupBy(16, WindowDefinition::Count(200, 50));
  auto data = syn::Generate(30000);
  ByteBuffer base = RunOnce(FastOptions(1, false), q, data, 500);
  for (int workers : {2, 5}) {
    for (bool gpu : {false, true}) {
      ByteBuffer other = RunOnce(FastOptions(workers, gpu), q, data, 500);
      EXPECT_TRUE(BuffersEqual(other, base, q.output_schema.tuple_size()))
          << workers << " workers, gpu=" << gpu;
    }
  }
}

TEST(EngineSemantics, OutputIdenticalAcrossTaskSizes) {
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeAggregation(AggregateFunction::kSum,
                                    WindowDefinition::Count(128, 32));
  auto data = syn::Generate(20000);
  ByteBuffer want = ReferenceEvaluate(q, data);
  for (size_t task_size : {size_t{512}, size_t{4096}, size_t{65536}}) {
    EngineOptions o = FastOptions(3, true);
    o.task_size = task_size;
    ByteBuffer got = RunOnce(o, q, data, 123);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "task size " << task_size;
  }
}

TEST(EngineSemantics, SwitchThresholdForcesGpuExploration) {
  // Even for a CPU-favoured query, the switch threshold must route some
  // tasks to the GPGPU so its column of the matrix stays observable (§4.2).
  Schema s = syn::SyntheticSchema();
  QueryDef def = syn::MakeSelection(1, 100, WindowDefinition::Count(64, 64));
  EngineOptions o = FastOptions(2, true);
  o.switch_threshold = 8;
  Engine engine(o);
  QueryHandle* q = engine.AddQuery(def);
  engine.Start();
  auto data = syn::Generate(200000);  // many tasks
  q->Insert(data.data(), data.size());
  engine.Drain();
  const int64_t gpu_tasks = q->tasks_on(Processor::kGpu);
  const int64_t total = gpu_tasks + q->tasks_on(Processor::kCpu);
  EXPECT_GT(total, 100);
  EXPECT_GT(gpu_tasks, 0);
}

TEST(EngineSemantics, PerProcessorAccountingIsConsistent) {
  Schema s = syn::SyntheticSchema();
  QueryDef def = syn::MakeSelection(4, 100, WindowDefinition::Count(64, 64));
  Engine engine(FastOptions(2, true));
  QueryHandle* q = engine.AddQuery(def);
  engine.Start();
  auto data = syn::Generate(50000);
  q->Insert(data.data(), data.size());
  engine.Drain();
  EXPECT_EQ(q->bytes_on(Processor::kCpu) + q->bytes_on(Processor::kGpu),
            q->bytes_in());
  EXPECT_EQ(q->tuples_in(), 50000);
}

TEST(EngineSemantics, RestartableEngineObjects) {
  // Two engines back to back in one process (resource cleanup sanity).
  Schema s = syn::SyntheticSchema();
  auto data = syn::Generate(5000);
  for (int round = 0; round < 2; ++round) {
    QueryDef q = syn::MakeSelection(2, 100, WindowDefinition::Count(64, 64));
    ByteBuffer got = RunOnce(FastOptions(2, true), q, data, 500);
    ByteBuffer want = ReferenceEvaluate(q, data);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  }
}

// Non-invertible (min/max) sliding aggregation goes through the two-stacks
// assembly path ([50]); its output must match the reference model and the
// forced re-merge path bit-for-bit.
struct NonInvertibleCase {
  AggregateFunction fn;
  WindowDefinition window;
  const char* label;
};

// Prints a case as gtest's byte dump would, from an image holding only the
// function and the window (padding and the label pointer zeroed), so its
// CTest id is the same in every run and every build.
void PrintTo(const NonInvertibleCase& c, std::ostream* os) {
  unsigned char img[sizeof(NonInvertibleCase)] = {};
  testing::PutBytes(img, offsetof(NonInvertibleCase, fn), c.fn);
  testing::PutWindowBytes(img, offsetof(NonInvertibleCase, window), c.window);
  testing::PrintObjectBytes(img, sizeof(img), os);
}

class NonInvertibleAggTest : public ::testing::TestWithParam<NonInvertibleCase> {};

TEST_P(NonInvertibleAggTest, TwoStacksMatchesReferenceAndRemerge) {
  const auto& p = GetParam();
  QueryDef q = syn::MakeAggregation(p.fn, p.window);
  auto data = syn::Generate(25000);
  ByteBuffer want = ReferenceEvaluate(q, data);

  ByteBuffer got = RunOnce(FastOptions(3, true), q, data, 555);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
      << p.label << " (two-stacks vs reference)";

  QueryDef remerge = syn::MakeAggregation(p.fn, p.window);
  remerge.assembly_mode = AssemblyMode::kRemergeOnly;
  ByteBuffer forced = RunOnce(FastOptions(3, true), remerge, data, 555);
  EXPECT_TRUE(BuffersEqual(forced, want, q.output_schema.tuple_size()))
      << p.label << " (re-merge vs reference)";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NonInvertibleAggTest,
    ::testing::Values(
        NonInvertibleCase{AggregateFunction::kMin,
                          WindowDefinition::Count(256, 64), "min_count_sliding"},
        NonInvertibleCase{AggregateFunction::kMax,
                          WindowDefinition::Count(512, 1), "max_count_slide1"},
        NonInvertibleCase{AggregateFunction::kMax,
                          WindowDefinition::Count(128, 128), "max_tumbling"},
        NonInvertibleCase{AggregateFunction::kMin,
                          WindowDefinition::Time(64, 16), "min_time_sliding"},
        NonInvertibleCase{AggregateFunction::kMax,
                          WindowDefinition::Time(100, 3), "max_time_uneven"}),
    [](const ::testing::TestParamInfo<NonInvertibleCase>& info) {
      return info.param.label;
    });

TEST(EngineSemantics, MixedInvertibleAndNotUsesTwoStacks) {
  // avg (invertible) + max (not): the mix disables the subtract path, so the
  // whole pane row rides the two-stacks structure.
  Schema s = syn::SyntheticSchema();
  QueryDef q = QueryBuilder("mix", s)
                   .Window(WindowDefinition::Count(300, 60))
                   .Aggregate(AggregateFunction::kAvg, Col(s, "a1"), "avg1")
                   .Aggregate(AggregateFunction::kMax, Col(s, "a1"), "max1")
                   .Aggregate(AggregateFunction::kMin, Col(s, "a2"), "min2")
                   .Build();
  auto data = syn::Generate(20000);
  ByteBuffer want = ReferenceEvaluate(q, data);
  ByteBuffer got = RunOnce(FastOptions(4, true), q, data, 999);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(EngineSemantics, SinkReceivesMonotoneTimestampsForAggregation) {
  // RStream output of an aggregation is in window order, so output
  // timestamps (max tuple ts per window) are non-decreasing.
  Schema s = syn::SyntheticSchema();
  QueryDef def = syn::MakeAggregation(AggregateFunction::kAvg,
                                      WindowDefinition::Count(256, 64));
  Engine engine(FastOptions(4, true));
  QueryHandle* q = engine.AddQuery(def);
  int64_t prev_ts = -1;
  bool monotone = true;
  const Schema& out = q->output_schema();
  q->SetSink([&](const uint8_t* rows, size_t bytes) {
    for (size_t off = 0; off < bytes; off += out.tuple_size()) {
      const int64_t ts = TupleRef(rows + off, &out).timestamp();
      if (ts < prev_ts) monotone = false;
      prev_ts = ts;
    }
  });
  engine.Start();
  auto data = syn::Generate(100000);
  q->Insert(data.data(), data.size());
  engine.Drain();
  EXPECT_TRUE(monotone);
  EXPECT_GT(prev_ts, 0);
}

}  // namespace
}  // namespace saber
