#include "sql/parser.h"

#include <algorithm>

namespace saber::sql {

namespace {

struct Source {
  std::string stream;
  std::string alias;
  Schema schema;
  WindowDefinition window;
};

struct SelectItem {
  ExprPtr expr;
  std::string name;
  bool is_star = false;
  // Aggregate call, if the item is one.
  bool is_aggregate = false;
  AggregateFunction fn = AggregateFunction::kCount;
  ExprPtr agg_input;  // null for count(*)
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Catalog& catalog, std::string name)
      : tokens_(std::move(tokens)), catalog_(catalog), name_(std::move(name)) {}

  Result<ParsedStatement> Run() {
    SABER_RETURN_NOT_OK(Expect("select"));
    // Columns in the select list resolve against the FROM sources, which
    // appear later in the statement: capture the select-list tokens and
    // parse them once the sources are known. FROM cannot occur inside an
    // expression in this grammar, so the scan is unambiguous.
    std::vector<Token> select_tokens;
    while (!Peek().IsKeyword("from") && Peek().kind != TokenKind::kEnd) {
      select_tokens.push_back(Next());
    }
    {
      Token end;
      end.kind = TokenKind::kEnd;
      end.position = Peek().position;
      end.line = Peek().line;
      end.column = Peek().column;
      select_tokens.push_back(end);
    }
    SABER_RETURN_NOT_OK(Expect("from"));
    SABER_RETURN_NOT_OK(ParseSource());
    if (Accept(TokenKind::kComma)) SABER_RETURN_NOT_OK(ParseSource());

    std::vector<SelectItem> items;
    {
      Parser sel(std::move(select_tokens), catalog_, name_);
      sel.sources_ = sources_;
      SABER_RETURN_NOT_OK(sel.ParseSelectList(&items));
      if (sel.Peek().kind != TokenKind::kEnd) {
        return sel.Err("unexpected token in select list");
      }
    }

    ExprPtr where;
    if (AcceptKeyword("where")) {
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      where = std::move(e).value();
    }
    std::vector<ExprPtr> group_by;
    std::vector<std::string> group_names;
    if (AcceptKeyword("group")) {
      SABER_RETURN_NOT_OK(Expect("by"));
      for (;;) {
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        group_names.push_back(DescribeLast());
        group_by.push_back(std::move(e).value());
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    // HAVING references *output* columns (aggregate aliases, group keys), so
    // its tokens are captured now and parsed after the output schema exists.
    // The capture stops at WITH, the only clause allowed after HAVING.
    std::vector<Token> having_tokens;
    if (AcceptKeyword("having")) {
      while (Peek().kind != TokenKind::kEnd && !Peek().IsKeyword("with")) {
        having_tokens.push_back(Next());
      }
      Token end;
      end.kind = TokenKind::kEnd;
      end.position = Peek().position;
      end.line = Peek().line;
      end.column = Peek().column;
      having_tokens.push_back(end);
    }
    IngressSpec ingress;
    if (AcceptKeyword("with")) {
      SABER_RETURN_NOT_OK(ParseWithClause(&ingress));
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Err("unexpected trailing input");
    }
    auto def = Build(std::move(items), std::move(where), std::move(group_by),
                     std::move(group_names));
    if (!def.ok()) return def.status();
    QueryDef q = std::move(def).value();
    if (!having_tokens.empty()) {
      if (!q.is_aggregation()) {
        return Err("HAVING requires aggregation (use WHERE to filter tuples)");
      }
      Parser sub(std::move(having_tokens), catalog_, name_ + "-having");
      Source pseudo;
      pseudo.alias = "";
      pseudo.schema = q.output_schema;
      sub.sources_.push_back(std::move(pseudo));
      auto h = sub.ParseExpr();
      if (!h.ok()) return h.status();
      if (sub.Peek().kind != TokenKind::kEnd) {
        return sub.Err("unexpected trailing input in HAVING");
      }
      q.having = std::move(h).value();
    }
    ParsedStatement stmt;
    stmt.def = std::move(q);
    stmt.ingress = ingress;
    return stmt;
  }

 private:
  // --- token helpers -------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool Accept(TokenKind k) {
    if (Peek().kind != k) return false;
    ++pos_;
    return true;
  }
  bool AcceptKeyword(const char* kw) {
    if (!Peek().IsKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  std::string Where() const {
    return " at line " + std::to_string(Peek().line) + ", column " +
           std::to_string(Peek().column);
  }
  Status Expect(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument("expected '" + std::string(kw) + "'" +
                                     Where());
    }
    return Status::OK();
  }
  Status ExpectKind(TokenKind k, const char* what) {
    if (!Accept(k)) {
      return Status::InvalidArgument("expected " + std::string(what) +
                                     Where());
    }
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(msg + Where());
  }
  std::string DescribeLast() const {
    return pos_ > 0 ? tokens_[pos_ - 1].raw : "expr";
  }

  // --- grammar -------------------------------------------------------------
  Status ParseSource() {
    if (Peek().kind != TokenKind::kIdent) return Err("expected stream name");
    Source src;
    src.stream = Next().raw;
    auto it = catalog_.find(src.stream);
    if (it == catalog_.end()) {
      return Status::NotFound("unknown stream '" + src.stream + "'");
    }
    src.schema = it->second;
    SABER_RETURN_NOT_OK(ParseWindow(&src.window));
    if (AcceptKeyword("as")) {
      if (Peek().kind != TokenKind::kIdent) return Err("expected alias");
      src.alias = Next().raw;
    } else if (Peek().kind == TokenKind::kIdent &&
               !Peek().IsKeyword("where") && !Peek().IsKeyword("group") &&
               !Peek().IsKeyword("having") && !Peek().IsKeyword("with")) {
      src.alias = Next().raw;
    } else {
      src.alias = src.stream;
    }
    for (const Source& prev : sources_) {
      if (prev.alias == src.alias) {
        return Status::InvalidArgument("duplicate source alias '" + src.alias +
                                       "'");
      }
    }
    sources_.push_back(std::move(src));
    return Status::OK();
  }

  Status ParseWindow(WindowDefinition* out) {
    SABER_RETURN_NOT_OK(ExpectKind(TokenKind::kLBracket, "'['"));
    bool time_based;
    if (AcceptKeyword("session")) {
      SABER_RETURN_NOT_OK(Expect("gap"));
      if (Peek().kind != TokenKind::kNumber || !Peek().number_is_int) {
        return Err("expected integer session gap");
      }
      const int64_t gap = Next().int_value;
      SABER_RETURN_NOT_OK(ExpectKind(TokenKind::kRBracket, "']'"));
      if (gap < 1) return Err("invalid session window: need gap >= 1");
      *out = WindowDefinition::Session(gap);
      return Status::OK();
    }
    if (AcceptKeyword("range")) {
      time_based = true;
    } else if (AcceptKeyword("rows")) {
      time_based = false;
    } else {
      return Err("expected RANGE, ROWS or SESSION");
    }
    if (time_based && AcceptKeyword("unbounded")) {
      SABER_RETURN_NOT_OK(ExpectKind(TokenKind::kRBracket, "']'"));
      *out = WindowDefinition::Unbounded();
      return Status::OK();
    }
    if (Peek().kind != TokenKind::kNumber || !Peek().number_is_int) {
      return Err("expected integer window size");
    }
    const int64_t size = Next().int_value;
    int64_t slide = size;  // tumbling by default
    if (AcceptKeyword("slide")) {
      if (Peek().kind != TokenKind::kNumber || !Peek().number_is_int) {
        return Err("expected integer slide");
      }
      slide = Next().int_value;
    }
    SABER_RETURN_NOT_OK(ExpectKind(TokenKind::kRBracket, "']'"));
    if (size < 1 || slide < 1 || slide > size) {
      return Err("invalid window: need 1 <= slide <= size");
    }
    *out = time_based ? WindowDefinition::Time(size, slide)
                      : WindowDefinition::Count(size, slide);
    return Status::OK();
  }

  Status ParseWithClause(IngressSpec* out) {
    for (;;) {
      if (AcceptKeyword("lateness")) {
        if (Peek().kind != TokenKind::kNumber || !Peek().number_is_int ||
            Peek().int_value < 0) {
          return Err("expected non-negative integer lateness");
        }
        out->allowed_lateness = Next().int_value;
      } else if (AcceptKeyword("late")) {
        if (AcceptKeyword("abort")) {
          out->late_policy = ingest::LatePolicy::kAbort;
        } else if (AcceptKeyword("drop")) {
          out->late_policy = ingest::LatePolicy::kDropAndCount;
        } else if (AcceptKeyword("deadletter")) {
          out->late_policy = ingest::LatePolicy::kDeadLetter;
        } else {
          return Err("expected ABORT, DROP or DEADLETTER");
        }
      } else {
        return Err("expected LATENESS or LATE");
      }
      if (!Accept(TokenKind::kComma)) break;
    }
    return Status::OK();
  }

  Status ParseSelectList(std::vector<SelectItem>* items) {
    for (;;) {
      SelectItem item;
      if (Accept(TokenKind::kStar)) {
        item.is_star = true;
        items->push_back(std::move(item));
      } else {
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        item.expr = std::move(e).value();
        item.is_aggregate = last_was_aggregate_;
        item.fn = last_fn_;
        item.agg_input = last_agg_input_;
        item.name = last_item_name_.empty() ? DescribeLast() : last_item_name_;
        if (AcceptKeyword("as")) {
          if (Peek().kind != TokenKind::kIdent) return Err("expected alias");
          item.name = Next().raw;
        }
        items->push_back(std::move(item));
      }
      if (!Accept(TokenKind::kComma)) break;
    }
    return Status::OK();
  }

  /// Runs one level of recursive descent (parentheses, unary minus, NOT,
  /// aggregate arguments), bounded by kMaxNestingDepth so a hostile
  /// statement is an InvalidArgument rather than a stack overflow.
  template <typename ParseFn>
  Result<ExprPtr> Nested(ParseFn&& parse) {
    if (depth_ >= kMaxNestingDepth) {
      return Err(StrCat("expression nested deeper than ", kMaxNestingDepth,
                        " levels"));
    }
    ++depth_;
    Result<ExprPtr> e = parse();
    --depth_;
    return e;
  }

  /// Counts one operator of the expression being parsed. A tree is at most
  /// one level taller than its operator count, and compiling, evaluating
  /// and freeing it all recurse over that height: a long flat chain such
  /// as `a + a + ... + a` needs no parser recursion but would still
  /// overflow the stack downstream.
  Status CountOperator() {
    if (++operators_ > kMaxExpressionOperators) {
      return Err(StrCat("expression has more than ", kMaxExpressionOperators,
                        " operators"));
    }
    return Status::OK();
  }

  // Expression grammar: or_expr > and_expr > not > comparison > additive >
  // multiplicative > primary.
  Result<ExprPtr> ParseExpr() {
    last_was_aggregate_ = false;
    last_item_name_.clear();
    operators_ = 0;
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    std::vector<ExprPtr> terms;
    terms.push_back(std::move(lhs).value());
    while (AcceptKeyword("or")) {
      SABER_RETURN_NOT_OK(CountOperator());
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      terms.push_back(std::move(rhs).value());
    }
    if (terms.size() == 1) return terms[0];
    return Or(std::move(terms));
  }

  Result<ExprPtr> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs;
    std::vector<ExprPtr> terms;
    terms.push_back(std::move(lhs).value());
    while (AcceptKeyword("and")) {
      SABER_RETURN_NOT_OK(CountOperator());
      auto rhs = ParseNot();
      if (!rhs.ok()) return rhs;
      terms.push_back(std::move(rhs).value());
    }
    if (terms.size() == 1) return terms[0];
    return And(std::move(terms));
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      SABER_RETURN_NOT_OK(CountOperator());
      auto e = Nested([&] { return ParseNot(); });
      if (!e.ok()) return e;
      return Not(std::move(e).value());
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    const TokenKind k = Peek().kind;
    CompareOp op;
    switch (k) {
      case TokenKind::kLt: op = CompareOp::kLt; break;
      case TokenKind::kLe: op = CompareOp::kLe; break;
      case TokenKind::kEq: op = CompareOp::kEq; break;
      case TokenKind::kNe: op = CompareOp::kNe; break;
      case TokenKind::kGe: op = CompareOp::kGe; break;
      case TokenKind::kGt: op = CompareOp::kGt; break;
      default: return lhs;
    }
    Next();
    SABER_RETURN_NOT_OK(CountOperator());
    auto rhs = ParseAdditive();
    if (!rhs.ok()) return rhs;
    return ExprPtr(std::make_shared<CompareExpr>(op, std::move(lhs).value(),
                                                 std::move(rhs).value()));
  }

  Result<ExprPtr> ParseAdditive() {
    auto lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs;
    ExprPtr e = std::move(lhs).value();
    for (;;) {
      const bool add = Accept(TokenKind::kPlus);
      if (!add && !Accept(TokenKind::kMinus)) return e;
      SABER_RETURN_NOT_OK(CountOperator());
      auto rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs;
      e = add ? Add(std::move(e), std::move(rhs).value())
              : Sub(std::move(e), std::move(rhs).value());
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    auto lhs = ParsePrimary();
    if (!lhs.ok()) return lhs;
    ExprPtr e = std::move(lhs).value();
    for (;;) {
      const TokenKind op = Peek().kind;
      if (op != TokenKind::kStar && op != TokenKind::kSlash &&
          op != TokenKind::kPercent) {
        return e;
      }
      Next();
      SABER_RETURN_NOT_OK(CountOperator());
      auto rhs = ParsePrimary();
      if (!rhs.ok()) return rhs;
      ExprPtr r = std::move(rhs).value();
      if (op == TokenKind::kStar) {
        e = Mul(std::move(e), std::move(r));
      } else if (op == TokenKind::kSlash) {
        e = Div(std::move(e), std::move(r));
      } else {
        e = Mod(std::move(e), std::move(r));
      }
    }
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumber) {
      Next();
      if (t.number_is_int) return Lit(t.int_value);
      return Lit(t.number);
    }
    if (Accept(TokenKind::kMinus)) {
      SABER_RETURN_NOT_OK(CountOperator());
      auto e = Nested([&] { return ParsePrimary(); });
      if (!e.ok()) return e;
      return Sub(Lit(static_cast<int64_t>(0)), std::move(e).value());
    }
    if (Accept(TokenKind::kLParen)) {
      auto e = Nested([&] { return ParseOr(); });
      if (!e.ok()) return e;
      SABER_RETURN_NOT_OK(ExpectKind(TokenKind::kRParen, "')'"));
      return e;
    }
    if (t.kind != TokenKind::kIdent) return Err("expected expression");

    // Aggregate call?
    static const std::map<std::string, AggregateFunction> kAggs = {
        {"sum", AggregateFunction::kSum},   {"avg", AggregateFunction::kAvg},
        {"count", AggregateFunction::kCount}, {"min", AggregateFunction::kMin},
        {"max", AggregateFunction::kMax}};
    auto agg_it = kAggs.find(t.text);
    if (agg_it != kAggs.end() && Peek(1).kind == TokenKind::kLParen) {
      Next();  // fn name
      Next();  // (
      ExprPtr input;
      if (Accept(TokenKind::kStar)) {
        if (agg_it->second != AggregateFunction::kCount) {
          return Err("'*' argument only valid for count");
        }
      } else {
        auto e = Nested([&] { return ParseOr(); });
        if (!e.ok()) return e;
        input = std::move(e).value();
      }
      SABER_RETURN_NOT_OK(ExpectKind(TokenKind::kRParen, "')'"));
      last_was_aggregate_ = true;
      last_fn_ = agg_it->second;
      last_agg_input_ = input;
      last_item_name_ = t.text;
      // Placeholder expression; aggregates are routed via AggregateSpec.
      return input != nullptr ? input : Lit(static_cast<int64_t>(0));
    }

    // Column reference: ident or alias.ident.
    Next();
    std::string alias, column = t.raw;
    if (Accept(TokenKind::kDot)) {
      if (Peek().kind != TokenKind::kIdent) return Err("expected column name");
      alias = t.raw;
      column = Next().raw;
    }
    return ResolveColumn(alias, column);
  }

  Result<ExprPtr> ResolveColumn(const std::string& alias,
                                const std::string& column) {
    for (size_t s = 0; s < sources_.size(); ++s) {
      if (!alias.empty() && sources_[s].alias != alias) continue;
      const int idx = sources_[s].schema.FieldIndex(column);
      if (idx < 0) {
        if (!alias.empty()) {
          return Status::NotFound("no column '" + column + "' in '" + alias +
                                  "'");
        }
        continue;
      }
      last_item_name_ = column;
      return ColAt(sources_[s].schema, static_cast<size_t>(idx),
                   s == 0 ? Side::kLeft : Side::kRight);
    }
    return Status::NotFound("unknown column '" + column + "'");
  }

  // --- QueryDef construction -----------------------------------------------
  Result<QueryDef> Build(std::vector<SelectItem> items, ExprPtr where,
                         std::vector<ExprPtr> group_by,
                         std::vector<std::string> group_names) {
    const bool is_join = sources_.size() == 2;
    const bool has_agg =
        std::any_of(items.begin(), items.end(),
                    [](const SelectItem& i) { return i.is_aggregate; });

    if (is_join) {
      if (has_agg || !group_by.empty()) {
        return Status::NotImplemented(
            "aggregation over a join must be expressed as a chained query "
            "(see SG3/LRB4)");
      }
      QueryBuilder b(name_, sources_[0].schema, sources_[1].schema);
      b.Window(sources_[0].window);
      b.WindowRight(sources_[1].window);
      if (where == nullptr) {
        return Status::InvalidArgument("joins require a WHERE predicate");
      }
      b.JoinOn(std::move(where));
      bool star = items.size() == 1 && items[0].is_star;
      if (!star) {
        for (auto& item : items) {
          if (item.is_star) return Err("mixed '*' and columns unsupported");
          b.JoinSelect(item.expr, item.name);
        }
      }
      return b.TryBuild();
    }

    QueryBuilder b(name_, sources_[0].schema);
    b.Window(sources_[0].window);
    if (where != nullptr) b.Where(std::move(where));

    if (has_agg || !group_by.empty()) {
      if (sources_[0].window.unbounded) {
        return Status::InvalidArgument("aggregation needs a bounded window");
      }
      // Non-aggregate select items must be the timestamp or a GROUP BY key;
      // both are emitted automatically by the aggregation output schema.
      // A select alias on a key expression names the output key column
      // (`position / 5280 as segment`).
      group_names.resize(group_by.size());
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (group_names[i].empty()) group_names[i] = group_by[i]->ToString();
      }
      for (auto& item : items) {
        if (item.is_star) return Err("'*' not valid with aggregation");
        if (item.is_aggregate) continue;
        const std::string repr = item.expr->ToString();
        bool is_key = repr == "$0";  // timestamp passthrough
        for (size_t i = 0; i < group_by.size(); ++i) {
          if (repr == group_by[i]->ToString()) {
            group_names[i] = item.name;
            is_key = true;
            break;
          }
        }
        if (!is_key) {
          return Status::InvalidArgument(
              "select item '" + item.name +
              "' is neither an aggregate nor a GROUP BY key");
        }
      }
      b.GroupBy(group_by, group_names);
      for (auto& item : items) {
        if (item.is_aggregate) b.Aggregate(item.fn, item.agg_input, item.name);
      }
      return b.TryBuild();
    }

    if (items.size() == 1 && items[0].is_star) {
      return b.TryBuild();  // identity projection
    }
    for (auto& item : items) {
      if (item.is_star) return Err("mixed '*' and columns unsupported");
      b.Select(item.expr, item.name);
    }
    return b.TryBuild();
  }

  /// Far deeper than any expression the engine admits (its compiled
  /// programs stop at CompiledExpr::kMaxStack = 64 slots), far shallower
  /// than the parser's stack use would allow.
  static constexpr int kMaxNestingDepth = 128;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
  int operators_ = 0;  // in the expression being parsed
  const Catalog& catalog_;
  std::string name_;
  std::vector<Source> sources_;

  bool last_was_aggregate_ = false;
  AggregateFunction last_fn_ = AggregateFunction::kCount;
  ExprPtr last_agg_input_;
  std::string last_item_name_;
};

}  // namespace

Result<ParsedStatement> ParseStatement(const std::string& statement,
                                       const Catalog& catalog,
                                       const std::string& query_name) {
  auto tokens = Tokenize(statement);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), catalog, query_name);
  return parser.Run();
}

Result<QueryDef> Parse(const std::string& statement, const Catalog& catalog,
                       const std::string& query_name) {
  auto stmt = ParseStatement(statement, catalog, query_name);
  if (!stmt.ok()) return stmt.status();
  return std::move(stmt).value().def;
}

}  // namespace saber::sql
