#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/query.h"

/// Operator-limit validation (kMaxAggregatesPerQuery / kMaxGroupKeyBytes /
/// kMaxExpressionOperators): misuse must fail at query-build time with a
/// clear Status — or, for hand-assembled QueryDefs, at Engine admission with
/// the limit named in the message — never mid-task on a worker thread.
///
/// Lifecycle-misuse validation rides along: TryAddQuery / RemoveQuery /
/// SetSink turn every caller mistake (capacity exhausted, foreign handle,
/// double removal, connected pair, bad weight) into a Status with the
/// offending query named, never an abort or a wedged pipeline.

namespace saber {
namespace {

Schema TestSchema() {
  return Schema::MakeStream({{"v", DataType::kInt32}, {"k", DataType::kInt64}});
}

QueryBuilder WithAggregates(size_t n) {
  Schema s = TestSchema();
  QueryBuilder b("limits", s);
  b.Window(WindowDefinition::Count(4, 4));
  for (size_t i = 0; i < n; ++i) {
    b.Aggregate(AggregateFunction::kSum, Col(s, "v"));
  }
  return b;
}

QueryBuilder WithGroupKeys(size_t n) {
  Schema s = TestSchema();
  QueryBuilder b("limits", s);
  b.Window(WindowDefinition::Count(4, 4));
  std::vector<ExprPtr> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(Col(s, "k"));
  b.GroupBy(std::move(keys));
  b.Aggregate(AggregateFunction::kCount, nullptr);
  return b;
}

TEST(QueryLimitsTest, MaxAggregatesAcceptedAtTheBoundary) {
  Result<QueryDef> r = WithAggregates(kMaxAggregatesPerQuery).TryBuild();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().aggregates.size(), kMaxAggregatesPerQuery);
}

TEST(QueryLimitsTest, TooManyAggregatesIsInvalidArgument) {
  Result<QueryDef> r = WithAggregates(kMaxAggregatesPerQuery + 1).TryBuild();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("kMaxAggregatesPerQuery"),
            std::string::npos)
      << r.status().ToString();
}

TEST(QueryLimitsTest, MaxGroupKeysAcceptedAtTheBoundary) {
  Result<QueryDef> r = WithGroupKeys(kMaxGroupKeyBytes / 8).TryBuild();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(QueryLimitsTest, TooManyGroupKeysIsInvalidArgument) {
  Result<QueryDef> r = WithGroupKeys(kMaxGroupKeyBytes / 8 + 1).TryBuild();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("kMaxGroupKeyBytes"), std::string::npos)
      << r.status().ToString();
}

QueryDef SimpleSelection(const std::string& name) {
  Schema s = TestSchema();
  return QueryBuilder(name, s).Where(Gt(Col(s, "v"), Lit(0))).Build();
}

EngineOptions TinyEngine(size_t max_queries) {
  EngineOptions o;
  o.num_cpu_workers = 1;
  o.use_gpu = false;
  o.max_queries = max_queries;
  return o;
}

/// `n` additions chained left-leaning onto column v: `((v + 1) + 1) ...`,
/// one node per element (the root last). Only two stack slots deep at any
/// length, but `n` levels tall.
std::vector<ExprPtr> LeftLeaningChain(int n) {
  Schema s = TestSchema();
  std::vector<ExprPtr> chain = {Col(s, "v")};
  for (int i = 0; i < n; ++i) chain.push_back(Add(chain.back(), Lit(1)));
  return chain;
}

/// Admits a projection of `expr` on a fresh engine.
Status AdmitProjection(ExprPtr expr) {
  QueryBuilder b("chain", TestSchema());
  b.Window(WindowDefinition::Count(4, 4)).Select(std::move(expr), "c");
  Result<QueryDef> def = b.TryBuild();
  if (!def.ok()) return def.status();
  EngineOptions o;
  o.num_cpu_workers = 1;
  o.use_gpu = false;
  Engine engine(o);
  return engine.TryAddQuery(std::move(def).value()).status();
}

/// Expression destructors recurse once per level. Releasing the root first,
/// while `chain` still holds every node, frees one level at a time.
void ReleaseRootFirst(std::vector<ExprPtr>* chain) {
  while (!chain->empty()) chain->pop_back();
}

TEST(QueryLimitsTest, MaxExpressionOperatorsAcceptedAtTheBoundary) {
  std::vector<ExprPtr> chain = LeftLeaningChain(kMaxExpressionOperators);
  const Status st = AdmitProjection(chain.back());
  EXPECT_TRUE(st.ok()) << st.ToString();
  ReleaseRootFirst(&chain);
}

TEST(QueryLimitsTest, TallHandBuiltExpressionIsInvalidArgument) {
  // The stack-depth check alone admits this chain (depth 2); compiling it
  // would then recurse 100 000 levels and overflow the stack.
  std::vector<ExprPtr> chain = LeftLeaningChain(100'000);
  const Status st = AdmitProjection(chain.back());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("kMaxExpressionOperators"), std::string::npos)
      << st.ToString();
  ReleaseRootFirst(&chain);
}

TEST(QueryLifecycleStatusTest, AdmissionBeyondCapacityIsResourceExhausted) {
  Engine engine(TinyEngine(2));
  ASSERT_TRUE(engine.TryAddQuery(SimpleSelection("a")).ok());
  ASSERT_TRUE(engine.TryAddQuery(SimpleSelection("b")).ok());
  Result<QueryHandle*> r = engine.TryAddQuery(SimpleSelection("c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_queries"), std::string::npos)
      << r.status().ToString();
}

TEST(QueryLifecycleStatusTest, RemovalRecyclesTheSlot) {
  Engine engine(TinyEngine(2));
  Result<QueryHandle*> a = engine.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(engine.TryAddQuery(SimpleSelection("b")).ok());
  ASSERT_TRUE(engine.RemoveQuery(a.value()).ok());
  EXPECT_EQ(a.value()->lifecycle(), QueryLifecycle::kRetired);
  EXPECT_EQ(engine.num_live_queries(), 1u);
  Result<QueryHandle*> c = engine.TryAddQuery(SimpleSelection("c"));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value()->index(), a.value()->index());  // lowest free slot
}

TEST(QueryLifecycleStatusTest, NonPositiveWeightIsInvalidArgument) {
  Engine engine(TinyEngine(4));
  for (const double w : {0.0, -1.0}) {
    // Build a valid def first (Build aborts on invalid weights), then
    // corrupt it by hand: TryAddQuery must still catch it at admission.
    QueryDef def = SimpleSelection("weighted");
    def.weight = w;
    Result<QueryHandle*> r = engine.TryAddQuery(std::move(def));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("weight"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(QueryLifecycleStatusTest, RemoveQueryOnForeignHandleIsNotFound) {
  Engine owner(TinyEngine(2));
  Engine other(TinyEngine(2));
  Result<QueryHandle*> q = owner.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(q.ok());
  Status s = other.RemoveQuery(q.value());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(other.RemoveQuery(nullptr).code(), StatusCode::kNotFound);
  // The owner can still remove it: the failed foreign call changed nothing.
  EXPECT_TRUE(owner.RemoveQuery(q.value()).ok());
}

TEST(QueryLifecycleStatusTest, DoubleRemovalIsInvalidArgument) {
  Engine engine(TinyEngine(2));
  Result<QueryHandle*> q = engine.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.RemoveQuery(q.value()).ok());
  Status again = engine.RemoveQuery(q.value());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(again.message().find("retired"), std::string::npos)
      << again.ToString();
}

TEST(QueryLifecycleStatusTest, ConnectedPairMembersAreNotRemovable) {
  Engine engine(TinyEngine(4));
  // A selection's output schema equals its input schema, so it can feed a
  // second identical selection (the SG3 chaining shape, minimized).
  Result<QueryHandle*> from = engine.TryAddQuery(SimpleSelection("from"));
  Result<QueryHandle*> to = engine.TryAddQuery(SimpleSelection("to"));
  ASSERT_TRUE(from.ok());
  ASSERT_TRUE(to.ok());
  engine.Connect(from.value(), to.value());
  for (QueryHandle* q : {from.value(), to.value()}) {
    Status s = engine.RemoveQuery(q);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("connected"), std::string::npos)
        << s.ToString();
  }
  // An unconnected bystander in the same engine stays removable.
  Result<QueryHandle*> lone = engine.TryAddQuery(SimpleSelection("lone"));
  ASSERT_TRUE(lone.ok());
  EXPECT_TRUE(engine.RemoveQuery(lone.value()).ok());
}

TEST(QueryLifecycleStatusTest, HandleStatisticsSurviveRetirement) {
  Engine engine(TinyEngine(2));
  Result<QueryHandle*> r = engine.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(r.ok());
  QueryHandle* q = r.value();
  ASSERT_TRUE(q->SetSink([](const uint8_t*, size_t) {}).ok());
  engine.Start();
  const Schema s = TestSchema();
  std::vector<uint8_t> tuples(64 * s.tuple_size(), 0);
  q->Insert(tuples.data(), tuples.size());
  const int64_t fed = q->tuples_in();
  ASSERT_TRUE(engine.RemoveQuery(q).ok());
  // The handle outlives the slot: statistics freeze instead of dangling,
  // and late inserts are dropped + counted, not crashed.
  EXPECT_EQ(q->lifecycle(), QueryLifecycle::kRetired);
  EXPECT_EQ(q->tuples_in(), fed);
  q->Insert(tuples.data(), tuples.size());
  EXPECT_EQ(q->tuples_in(), fed);
  EXPECT_EQ(q->tuples_dropped(), 64);
  engine.Stop();
}

TEST(QueryLimitsDeathTest, BuildAbortsWithClearMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WithAggregates(kMaxAggregatesPerQuery + 1).Build(),
               "InvalidArgument.*kMaxAggregatesPerQuery");
}

TEST(QueryLimitsDeathTest, AddQueryRejectsHandBuiltDefOverLimit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Bypass QueryBuilder entirely: a hand-assembled QueryDef must still fail
  // at registration, not when the first task runs.
  Schema s = TestSchema();
  QueryDef def;
  def.name = "hand-built";
  def.input_schema[0] = s;
  def.window[0] = WindowDefinition::Count(4, 4);
  for (size_t i = 0; i <= kMaxAggregatesPerQuery; ++i) {
    def.aggregates.push_back(
        AggregateSpec{AggregateFunction::kSum, Col(s, "v"), "a"});
  }
  EXPECT_DEATH(
      {
        EngineOptions o;
        o.num_cpu_workers = 1;
        o.use_gpu = false;
        Engine engine(o);
        engine.AddQuery(std::move(def));
      },
      "Engine::AddQuery.*kMaxAggregatesPerQuery");
}

}  // namespace
}  // namespace saber
