#include "sql/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "reference/reference.h"
#include "test_util.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/linear_road.h"
#include "workloads/smart_grid.h"
#include "workloads/synthetic.h"

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::RunSingleInput;

sql::Catalog MakeCatalog() {
  return sql::Catalog{{"SynStream", syn::SyntheticSchema()},
                      {"TaskEvents", cm::TaskEventSchema()},
                      {"SmartGridStr", sg::SmartGridSchema()},
                      {"PosSpeedStr", lrb::PositionSchema()}};
}

// --------------------------------------------------------------------------
// Lexer.
// --------------------------------------------------------------------------

TEST(Lexer, TokenizesOperatorsAndNumbers) {
  auto r = sql::Tokenize("a >= 10.5 and b_2 != 3 -- comment\n * ()");
  ASSERT_TRUE(r.ok());
  const auto& t = r.value();
  ASSERT_EQ(t.size(), 11u);  // a >= 10.5 and b_2 != 3 * ( ) + kEnd
  EXPECT_EQ(t[0].text, "a");
  EXPECT_EQ(t[1].kind, sql::TokenKind::kGe);
  EXPECT_DOUBLE_EQ(t[2].number, 10.5);
  EXPECT_FALSE(t[2].number_is_int);
  EXPECT_TRUE(t[3].IsKeyword("and"));
  EXPECT_EQ(t[4].raw, "b_2");
  EXPECT_EQ(t[5].kind, sql::TokenKind::kNe);
  EXPECT_TRUE(t[6].number_is_int);
  EXPECT_EQ(t[6].int_value, 3);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_FALSE(sql::Tokenize("select ? from x").ok());
  EXPECT_FALSE(sql::Tokenize("a ! b").ok());
}

// --------------------------------------------------------------------------
// Parser: structure.
// --------------------------------------------------------------------------

TEST(Parser, SelectStarIsIdentity) {
  auto r = sql::Parse("select * from SynStream [rows 1]", MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryDef& q = r.value();
  EXPECT_TRUE(q.is_stateless());
  EXPECT_EQ(q.output_schema.tuple_size(), syn::SyntheticSchema().tuple_size());
}

TEST(Parser, WindowForms) {
  auto tumbling =
      sql::Parse("select * from SynStream [range 60]", MakeCatalog());
  ASSERT_TRUE(tumbling.ok());
  EXPECT_EQ(tumbling.value().window[0], WindowDefinition::Time(60, 60));

  auto sliding =
      sql::Parse("select * from SynStream [range 60 slide 1]", MakeCatalog());
  ASSERT_TRUE(sliding.ok());
  EXPECT_EQ(sliding.value().window[0], WindowDefinition::Time(60, 1));

  auto rows =
      sql::Parse("select * from SynStream [rows 1024 slide 256]", MakeCatalog());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().window[0], WindowDefinition::Count(1024, 256));

  auto unbounded =
      sql::Parse("select * from SynStream [range unbounded]", MakeCatalog());
  ASSERT_TRUE(unbounded.ok());
  EXPECT_TRUE(unbounded.value().window[0].unbounded);
}

TEST(Parser, RejectsBadWindows) {
  EXPECT_FALSE(sql::Parse("select * from SynStream", MakeCatalog()).ok());
  EXPECT_FALSE(
      sql::Parse("select * from SynStream [range 4 slide 9]", MakeCatalog()).ok());
  EXPECT_FALSE(
      sql::Parse("select * from SynStream [range 0]", MakeCatalog()).ok());
}

TEST(Parser, UnknownStreamAndColumn) {
  EXPECT_EQ(sql::Parse("select * from Nope [rows 1]", MakeCatalog())
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sql::Parse("select nope from SynStream [rows 1]", MakeCatalog())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(Parser, AggregationShape) {
  auto r = sql::Parse(
      "select timestamp, category, sum(cpu) as totalCpu "
      "from TaskEvents [range 60 slide 1] group by category",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryDef& q = r.value();
  EXPECT_TRUE(q.is_aggregation());
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_EQ(q.aggregates[0].fn, AggregateFunction::kSum);
  EXPECT_EQ(q.aggregates[0].name, "totalCpu");
  EXPECT_EQ(q.group_by.size(), 1u);
  EXPECT_GE(q.output_schema.FieldIndex("totalCpu"), 0);
}

TEST(Parser, HavingResolvesAgainstOutputSchema) {
  auto r = sql::Parse(
      "select timestamp, highway, direction, position / 5280 as segment, "
      "avg(speed) as avgSpeed from PosSpeedStr [range 300 slide 1] "
      "group by highway, direction, position / 5280 "
      "having avgSpeed < 40.0",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().having, nullptr);
  // The having expression must reference the *output* row layout.
  EXPECT_NE(r.value().output_schema.FieldIndex("avgSpeed"), -1);
}

TEST(Parser, JoinShape) {
  auto r = sql::Parse(
      "select L.timestamp, L.house from SmartGridStr [range 1] as G, "
      "SmartGridStr [range 1] as L where L.house == G.house and "
      "L.value > G.value",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryDef& q = r.value();
  EXPECT_TRUE(q.is_join());
  EXPECT_NE(q.join_predicate, nullptr);
  EXPECT_EQ(q.join_select.size(), 2u);
}

TEST(Parser, JoinWithAggregationIsRejected) {
  auto r = sql::Parse(
      "select count(*) from SmartGridStr [range 1] as A, "
      "SmartGridStr [range 1] as B where A.house == B.house",
      MakeCatalog());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
}

// --------------------------------------------------------------------------
// Parser: semantic equivalence with the fluent-builder queries — the parsed
// query must produce byte-identical output on real data.
// --------------------------------------------------------------------------

TEST(Parser, CM1EquivalentToBuilder) {
  cm::TraceOptions opts;
  opts.events_per_second = 50;
  auto trace = cm::GenerateTrace(4000, opts);
  auto r = sql::Parse(
      "select timestamp, category, sum(cpu) as totalCpu "
      "from TaskEvents [range 60 slide 1] group by category",
      MakeCatalog(), "CM1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ByteBuffer want = ReferenceEvaluate(cm::MakeCM1(), trace);
  ByteBuffer got = ReferenceEvaluate(r.value(), trace);
  EXPECT_TRUE(
      BuffersEqual(got, want, r.value().output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(Parser, CM2EquivalentToBuilder) {
  cm::TraceOptions opts;
  opts.events_per_second = 50;
  auto trace = cm::GenerateTrace(4000, opts);
  auto r = sql::Parse(
      "select timestamp, jobId, avg(cpu) as avgCpu "
      "from TaskEvents [range 60 slide 1] where eventType == 1 "
      "group by jobId",
      MakeCatalog(), "CM2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ByteBuffer want = ReferenceEvaluate(cm::MakeCM2(), trace);
  ByteBuffer got = ReferenceEvaluate(r.value(), trace);
  EXPECT_TRUE(BuffersEqual(got, want, r.value().output_schema.tuple_size()));
}

TEST(Parser, SG1EquivalentToBuilder) {
  sg::GridOptions g;
  g.readings_per_second = 300;
  auto data = sg::GenerateReadings(4000, g);
  auto r = sql::Parse(
      "select timestamp, avg(value) as globalAvgLoad "
      "from SmartGridStr [range 5 slide 1]",
      MakeCatalog(), "SG1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ByteBuffer want = ReferenceEvaluate(sg::MakeSG1(5, 1), data);
  ByteBuffer got = ReferenceEvaluate(r.value(), data);
  EXPECT_TRUE(BuffersEqual(got, want, r.value().output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(Parser, LRB1EquivalentToBuilder) {
  auto data = lrb::GenerateReports(2000);
  auto r = sql::Parse(
      "select timestamp, vehicle, speed, highway, lane, direction, "
      "position / 5280 as segment from PosSpeedStr [range unbounded]",
      MakeCatalog(), "LRB1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ByteBuffer want = ReferenceEvaluate(lrb::MakeLRB1(), data);
  ByteBuffer got = ReferenceEvaluate(r.value(), data);
  EXPECT_TRUE(BuffersEqual(got, want, r.value().output_schema.tuple_size()));
}

TEST(Parser, LRB3EquivalentToBuilderIncludingHaving) {
  lrb::RoadOptions opts;
  opts.reports_per_second = 1000;
  auto data = lrb::GenerateReports(15000, opts);
  auto r = sql::Parse(
      "select timestamp, highway, direction, position / 5280 as segment, "
      "avg(speed) as avgSpeed from PosSpeedStr [range 4 slide 2] "
      "group by highway, direction, position / 5280 "
      "having avgSpeed < 40.0",
      MakeCatalog(), "LRB3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ByteBuffer want = ReferenceEvaluate(lrb::MakeLRB3(4, 2), data);
  ByteBuffer got = ReferenceEvaluate(r.value(), data);
  EXPECT_TRUE(BuffersEqual(got, want, r.value().output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(Parser, ParsedQueryRunsOnCpuOperator) {
  auto data = syn::Generate(3000);
  auto r = sql::Parse(
      "select timestamp, a2 + a3 as s23 from SynStream [rows 1] "
      "where a4 % 2 == 0",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  QueryDef q = r.value();
  auto op = MakeCpuOperator(&q);
  ByteBuffer got = RunSingleInput(*op, q, data, 250);
  ByteBuffer want = ReferenceEvaluate(q, data);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(Parser, ArithmeticPrecedence) {
  auto data = syn::Generate(100);
  auto r = sql::Parse("select timestamp, a2 + a3 * 2 - a4 as v "
                      "from SynStream [rows 1]",
                      MakeCatalog());
  ASSERT_TRUE(r.ok());
  Schema s = syn::SyntheticSchema();
  ByteBuffer out = ReferenceEvaluate(r.value(), data);
  TupleRef in0(data.data(), &s);
  TupleRef out0(out.data(), &r.value().output_schema);
  EXPECT_EQ(out0.GetAsInt64(1), in0.GetAsInt64(2) + in0.GetAsInt64(3) * 2 -
                                    in0.GetAsInt64(4));
}

TEST(Parser, ParenthesesAndLogicalPrecedence) {
  auto r1 = sql::Parse(
      "select * from SynStream [rows 1] where a2 == 1 or a3 == 2 and a4 == 3",
      MakeCatalog());
  ASSERT_TRUE(r1.ok());
  // AND binds tighter than OR.
  EXPECT_EQ(r1.value().where->ToString(),
            "(($2 == 1) || (($3 == 2) && ($4 == 3)))");
  auto r2 = sql::Parse(
      "select * from SynStream [rows 1] where (a2 == 1 or a3 == 2) and a4 == 3",
      MakeCatalog());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().where->ToString(),
            "((($2 == 1) || ($3 == 2)) && ($4 == 3))");
}

TEST(Parser, CountStarAndNegativeLiterals) {
  auto r = sql::Parse(
      "select timestamp, count(*) as n from SynStream [rows 64] "
      "where a2 > -5",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().aggregates[0].fn, AggregateFunction::kCount);
  EXPECT_EQ(r.value().aggregates[0].input, nullptr);
}

// --------------------------------------------------------------------------
// Failure injection: malformed statements must produce an error status —
// never a crash, never a silently-wrong QueryDef.
// --------------------------------------------------------------------------

class ParserRejectionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRejectionTest, ReturnsErrorStatus) {
  auto r = sql::Parse(GetParam(), MakeCatalog());
  EXPECT_FALSE(r.ok()) << "accepted: " << GetParam();
  EXPECT_FALSE(r.status().message().empty());
}

INSTANTIATE_TEST_SUITE_P(
    MalformedStatements, ParserRejectionTest,
    ::testing::Values(
        // Truncations.
        "", "select", "select *", "select * from",
        "select * from SynStream [",
        "select * from SynStream [rows",
        "select * from SynStream [rows 8",
        "select a1 from SynStream [rows 8] where",
        "select a1 from SynStream [rows 8] group by",
        "select sum(a1) from SynStream [rows 8] having",
        // Wrong keywords / stray tokens.
        "choose * from SynStream [rows 8]",
        "select * of SynStream [rows 8]",
        // Note: a bare trailing identifier is a legal implicit alias
        // (`from S [rows 8] s`), so junk must follow a complete clause.
        "select * from SynStream [rows 8] where a1 > 1 extra_token",
        "select * from SynStream [lines 8]",
        // Unknown identifiers.
        "select nope from SynStream [rows 8]",
        "select * from NoSuchStream [rows 8]",
        "select * from SynStream [rows 8] where ghost > 1",
        "select sum(a1) from SynStream [rows 8] group by ghost",
        // Structural violations.
        "select sum(a1), a2 from SynStream [rows 8]",  // a2 not grouped
        "select a1 from SynStream [rows 8] having a1 > 1",  // having w/o agg
        "select avg() from SynStream [rows 8]",
        "select frobnicate(a1) from SynStream [rows 8]",
        // Window violations.
        "select * from SynStream [rows 8 slide 16]",  // slide > size
        "select * from SynStream [range -5]",
        "select * from SynStream [rows 8] [rows 8]",
        // Expression garbage.
        "select * from SynStream [rows 8] where a1 >",
        "select * from SynStream [rows 8] where (a1 > 1",
        "select * from SynStream [rows 8] where a1 + > 2",
        "select * from SynStream [rows 8] where and a1 > 1",
        // Join misuse.
        "select * from SynStream [rows 8], SynStream [rows 8], "
        "SynStream [rows 8]",  // three-way join unsupported
        "select * from SynStream [rows 8] as a, SynStream [rows 8] as a "
        "where a.a1 == a.a1"  // duplicate alias
        ));

TEST(Parser, SelectAliasNamesGroupKeyColumn) {
  auto r = sql::Parse(
      "select timestamp, position / 5280 as segment, avg(speed) as avgSpeed "
      "from PosSpeedStr [range 300 slide 1] "
      "group by position / 5280",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.value().output_schema.FieldIndex("segment"), 0);
  EXPECT_GE(r.value().output_schema.FieldIndex("avgSpeed"), 0);
}

TEST(Parser, DeeplyNestedParenthesesDoNotOverflow) {
  // The recursive descent is bounded: 100 000 parentheses (~200 KB) used to
  // recurse once per '(' until the stack ran out. Unary minus and NOT
  // recurse too.
  auto nested = [](int levels, const std::string& open,
                   const std::string& close) {
    std::string q = "select * from SynStream [rows 8] where ";
    for (int i = 0; i < levels; ++i) q += open;
    q += "a1 > 1";
    for (int i = 0; i < levels; ++i) q += close;
    return q;
  };
  auto ok = sql::Parse(nested(100, "(", ")"), MakeCatalog());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_NE(ok.value().where, nullptr);
  for (const std::string& q :
       {nested(200, "(", ")"), nested(100'000, "(", ")"),
        nested(100'000, "- ", ""), nested(100'000, "not ", "")}) {
    auto r = sql::Parse(q, MakeCatalog());
    ASSERT_FALSE(r.ok()) << q.substr(0, 60);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("nested deeper than"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(Parser, TooDeepExpressionIsRejectedAtAdmission) {
  // 70 nested `a2 + (...)` levels parse fine, but the compiled program
  // would need 71 stack slots: the engine must refuse the query with a
  // Status instead of aborting when it compiles the operator.
  std::string expr = "a2";
  for (int i = 0; i < 70; ++i) expr = "a2 + (" + expr + ")";
  auto r = sql::Parse("select timestamp, " + expr + " as deep from SynStream "
                      "[rows 8]",
                      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EngineOptions eo;
  eo.num_cpu_workers = 1;
  eo.use_gpu = false;
  Engine engine(eo);
  auto added = engine.TryAddQuery(r.value());
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(added.status().message().find("kMaxStack"), std::string::npos)
      << added.status().ToString();

  // At the limit the same shape is admitted.
  expr = "a2";
  for (int i = 0; i < 63; ++i) expr = "a2 + (" + expr + ")";
  auto ok = sql::Parse("select timestamp, " + expr + " as deep from SynStream "
                       "[rows 8]",
                       MakeCatalog());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(engine.TryAddQuery(ok.value()).ok());
}

TEST(Parser, LongFlatChainsAreBoundedByOperatorCount) {
  // A left-leaning chain needs no parser recursion and two stack slots,
  // but its tree is as tall as it is long, and compiling or freeing it
  // recurses over that height: ~500 KB of `+ a2` used to overflow the stack
  // in Compile.
  auto chain = [](int terms) {
    std::string expr = "a2";
    for (int i = 1; i < terms; ++i) expr += " + a2";
    return "select timestamp, " + expr + " as flat from SynStream [rows 8]";
  };
  auto r = sql::Parse(chain(4'000), MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EngineOptions eo;
  eo.num_cpu_workers = 1;
  eo.use_gpu = false;
  Engine engine(eo);
  EXPECT_TRUE(engine.TryAddQuery(r.value()).ok());

  auto too_long = sql::Parse(chain(100'000), MakeCatalog());
  ASSERT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_long.status().message().find("operators"), std::string::npos)
      << too_long.status().ToString();
}

TEST(Parser, ErrorMessagesNameTheProblem) {
  auto bad_stream = sql::Parse("select * from Ghost [rows 8]", MakeCatalog());
  ASSERT_FALSE(bad_stream.ok());
  EXPECT_NE(bad_stream.status().message().find("Ghost"), std::string::npos);
  auto bad_col =
      sql::Parse("select ghostcol from SynStream [rows 8]", MakeCatalog());
  ASSERT_FALSE(bad_col.ok());
  EXPECT_NE(bad_col.status().message().find("ghostcol"), std::string::npos);
}

}  // namespace
}  // namespace saber
