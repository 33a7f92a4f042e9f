#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "reference/reference.h"
#include "test_util.h"
#include "workloads/synthetic.h"

/// Property sweep: the engine must match the single-threaded reference model
/// byte-for-byte for every combination of operator family and window
/// definition, under parallel hybrid execution. This is the paper's core
/// semantic invariant (§3: batches are independent of windows; §4.3: results
/// are reordered and assembled exactly).

namespace saber {
namespace {

using testing::BuffersEqual;

enum class OpFamily : int {
  kProjection,
  kSelection,
  kAggSum,
  kAggMax,
  kGroupBy,
  kJoin,
};

struct SweepCase {
  OpFamily op;
  WindowDefinition window;
  std::string label;
};

// Prints a case as gtest's byte dump would, from an image holding only the
// operator and the window (padding and the label's heap pointer zeroed), so
// its CTest id is the same in every run and every build.
void PrintTo(const SweepCase& c, std::ostream* os) {
  unsigned char img[sizeof(SweepCase)] = {};
  testing::PutBytes(img, offsetof(SweepCase, op), c.op);
  testing::PutWindowBytes(img, offsetof(SweepCase, window), c.window);
  testing::PrintObjectBytes(img, sizeof(img), os);
}

QueryDef MakeQuery(const SweepCase& c) {
  switch (c.op) {
    case OpFamily::kProjection:
      return syn::MakeProjection(3, 2, c.window);
    case OpFamily::kSelection:
      return syn::MakeSelection(8, 10, c.window);
    case OpFamily::kAggSum:
      return syn::MakeAggregation(AggregateFunction::kSum, c.window);
    case OpFamily::kAggMax:
      return syn::MakeAggregation(AggregateFunction::kMax, c.window);
    case OpFamily::kGroupBy:
      return syn::MakeGroupBy(8, c.window);
    case OpFamily::kJoin:
      return syn::MakeJoin(2, c.window, 16);
  }
  SABER_CHECK(false);
  return syn::MakeProjection(1);
}

class EnginePropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EnginePropertySweep, MatchesReference) {
  const SweepCase& c = GetParam();
  QueryDef q = MakeQuery(c);

  EngineOptions o;
  o.num_cpu_workers = 3;
  o.use_gpu = true;
  o.device.pace_transfers = false;
  o.task_size = 2048;  // force many tasks and window fragments

  syn::GeneratorOptions go;
  go.seed = 77;
  go.tuples_per_ts = 16;
  const size_t n = c.op == OpFamily::kJoin ? 4000 : 12000;
  auto s0 = syn::Generate(n, go);
  go.seed = 78;
  auto s1 = syn::Generate(n, go);

  ByteBuffer want = c.op == OpFamily::kJoin ? ReferenceEvaluate(q, s0, s1)
                                            : ReferenceEvaluate(q, s0);

  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  ByteBuffer got;
  h->SetSink([&](const uint8_t* d, size_t m) { got.Append(d, m); });
  engine.Start();
  const size_t tsz = q.input_schema[0].tuple_size();
  const size_t chunk = 400 * tsz;
  if (c.op == OpFamily::kJoin) {
    for (size_t off = 0; off < s0.size(); off += chunk) {
      const size_t m = std::min(chunk, s0.size() - off);
      h->InsertInto(0, s0.data() + off, m);
      h->InsertInto(1, s1.data() + off, m);
    }
  } else {
    for (size_t off = 0; off < s0.size(); off += chunk) {
      h->Insert(s0.data() + off, std::min(chunk, s0.size() - off));
    }
  }
  engine.Drain();

  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size())) << c.label;
  // Sanity: the sweep must exercise real output, not vacuous empty streams.
  EXPECT_GT(want.size(), 0u) << c.label;
}

std::vector<SweepCase> MakeSweep() {
  const std::vector<std::pair<OpFamily, std::string>> ops = {
      {OpFamily::kProjection, "proj"}, {OpFamily::kSelection, "select"},
      {OpFamily::kAggSum, "sum"},      {OpFamily::kAggMax, "max"},
      {OpFamily::kGroupBy, "groupby"}, {OpFamily::kJoin, "join"},
  };
  const std::vector<std::pair<WindowDefinition, std::string>> windows = {
      {WindowDefinition::Count(64, 64), "count_tumbling"},
      {WindowDefinition::Count(256, 32), "count_sliding"},
      {WindowDefinition::Count(100, 7), "count_uneven"},
      {WindowDefinition::Time(16, 16), "time_tumbling"},
      {WindowDefinition::Time(50, 5), "time_sliding"},
      {WindowDefinition::Time(37, 11), "time_uneven"},
  };
  std::vector<SweepCase> cases;
  for (const auto& [op, on] : ops) {
    for (const auto& [w, wn] : windows) {
      // Count-based join windows pair per-stream tuple indices; the
      // reference and engine agree, but the quadratic cost at 256-tuple
      // windows over 4k tuples is wasteful — keep joins on a subset.
      if (op == OpFamily::kJoin && wn == "count_sliding") continue;
      cases.push_back(SweepCase{op, w, on + "_" + wn});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOperatorsAllWindows, EnginePropertySweep,
                         ::testing::ValuesIn(MakeSweep()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return info.param.label;
                         });

}  // namespace
}  // namespace saber
