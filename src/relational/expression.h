#pragma once

#include <memory>
#include <string>
#include <vector>

#include "relational/tuple_ref.h"

/// \file expression.h
/// Scalar expressions over stream tuples: column references, literals,
/// arithmetic, comparisons and boolean connectives. Queries build immutable
/// expression trees that are shared by all query tasks (evaluation is const
/// and thread-safe).
///
/// Two evaluation regimes exist, mirroring the paper's two back ends:
///  - the CPU operator path *interprets* the tree per tuple (virtual
///    dispatch), like SABER's generic Java operators (§5.3);
///  - the GPGPU path lowers the tree once per query into a flat postfix
///    program (expression_compiler.h) executed by a tight loop, like SABER's
///    populated OpenCL code templates (§5.4).

namespace saber {

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

/// Most operator nodes (arithmetic, comparison, boolean) one expression may
/// hold. A tree is at most one level taller than its operator count, and
/// compiling, evaluating and freeing it all recurse over that height: the
/// SQL parser and query admission both refuse larger expressions.
inline constexpr int kMaxExpressionOperators = 4096;

enum class CompareOp { kLt, kLe, kEq, kNe, kGe, kGt };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class LogicalOp { kAnd, kOr, kNot };

/// Which input tuple a column reference addresses; joins evaluate predicates
/// over a (left, right) pair.
enum class Side : uint8_t { kLeft = 0, kRight = 1 };

class Expression {
 public:
  enum class Kind { kColumn, kLiteral, kArith, kCompare, kLogical };

  virtual ~Expression() = default;

  Kind kind() const { return kind_; }

  /// Numeric result widened to double. `right` may be null for single-input
  /// expressions.
  virtual double EvalDouble(const TupleRef& left, const TupleRef* right) const = 0;

  /// Integral result (used for group keys and integer comparisons).
  virtual int64_t EvalInt64(const TupleRef& left, const TupleRef* right) const = 0;

  /// Boolean result (predicates).
  virtual bool EvalBool(const TupleRef& left, const TupleRef* right) const {
    return EvalDouble(left, right) != 0.0;
  }

  /// Static type of the expression result.
  virtual DataType output_type() const = 0;

  /// True if the result is integral (no float involved), in which case
  /// comparisons use the exact int64 path.
  bool integral() const { return IsIntegral(output_type()); }

  virtual std::string ToString() const = 0;

 protected:
  explicit Expression(Kind kind) : kind_(kind) {}

 private:
  const Kind kind_;
};

class ColumnExpr final : public Expression {
 public:
  ColumnExpr(size_t field, DataType type, Side side = Side::kLeft)
      : Expression(Kind::kColumn), field_(field), type_(type), side_(side) {}

  size_t field() const { return field_; }
  Side side() const { return side_; }

  double EvalDouble(const TupleRef& l, const TupleRef* r) const override {
    return Pick(l, r).GetAsDouble(field_);
  }
  int64_t EvalInt64(const TupleRef& l, const TupleRef* r) const override {
    return Pick(l, r).GetAsInt64(field_);
  }
  DataType output_type() const override { return type_; }
  std::string ToString() const override {
    return (side_ == Side::kRight ? "R.$" : "$") + std::to_string(field_);
  }

 private:
  const TupleRef& Pick(const TupleRef& l, const TupleRef* r) const {
    return side_ == Side::kLeft ? l : *r;
  }

  size_t field_;
  DataType type_;
  Side side_;
};

class LiteralExpr final : public Expression {
 public:
  explicit LiteralExpr(double v)
      : Expression(Kind::kLiteral), dval_(v), ival_(static_cast<int64_t>(v)),
        type_(DataType::kDouble) {}
  explicit LiteralExpr(int64_t v)
      : Expression(Kind::kLiteral), dval_(static_cast<double>(v)), ival_(v),
        type_(DataType::kInt64) {}

  double EvalDouble(const TupleRef&, const TupleRef*) const override { return dval_; }
  int64_t EvalInt64(const TupleRef&, const TupleRef*) const override { return ival_; }
  DataType output_type() const override { return type_; }
  std::string ToString() const override {
    return type_ == DataType::kInt64 ? std::to_string(ival_) : std::to_string(dval_);
  }

  double dval() const { return dval_; }
  int64_t ival() const { return ival_; }

 private:
  double dval_;
  int64_t ival_;
  DataType type_;
};

class ArithExpr final : public Expression {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : Expression(Kind::kArith), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
    integral_result_ = lhs_->integral() && rhs_->integral() && op_ != ArithOp::kDiv;
  }

  ArithOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  double EvalDouble(const TupleRef& l, const TupleRef* r) const override {
    if (integral_result_) return static_cast<double>(EvalInt64(l, r));
    const double a = lhs_->EvalDouble(l, r);
    const double b = rhs_->EvalDouble(l, r);
    switch (op_) {
      case ArithOp::kAdd: return a + b;
      case ArithOp::kSub: return a - b;
      case ArithOp::kMul: return a * b;
      case ArithOp::kDiv: return b == 0.0 ? 0.0 : a / b;
      case ArithOp::kMod: {
        const int64_t bi = static_cast<int64_t>(b);
        return bi == 0 ? 0.0
                       : static_cast<double>(static_cast<int64_t>(a) % bi);
      }
    }
    return 0.0;
  }

  int64_t EvalInt64(const TupleRef& l, const TupleRef* r) const override {
    if (!integral_result_) return static_cast<int64_t>(EvalDouble(l, r));
    const int64_t a = lhs_->EvalInt64(l, r);
    const int64_t b = rhs_->EvalInt64(l, r);
    switch (op_) {
      case ArithOp::kAdd: return a + b;
      case ArithOp::kSub: return a - b;
      case ArithOp::kMul: return a * b;
      case ArithOp::kDiv: return b == 0 ? 0 : a / b;
      case ArithOp::kMod: return b == 0 ? 0 : a % b;
    }
    return 0;
  }

  DataType output_type() const override {
    return integral_result_ ? DataType::kInt64 : DataType::kDouble;
  }

  std::string ToString() const override {
    // Built up with += (not `"(" + ...`) to dodge a spurious -Wrestrict in
    // GCC 12's inlined operator+(const char*, string&&) (GCC PR 105651).
    static const char* kOps[] = {"+", "-", "*", "/", "%"};
    std::string out = "(";
    out += lhs_->ToString();
    out += ' ';
    out += kOps[static_cast<int>(op_)];
    out += ' ';
    out += rhs_->ToString();
    out += ')';
    return out;
  }

 private:
  ArithOp op_;
  ExprPtr lhs_, rhs_;
  bool integral_result_;
};

class CompareExpr final : public Expression {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expression(Kind::kCompare), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)),
        integral_(lhs_->integral() && rhs_->integral()) {}

  CompareOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  bool EvalBool(const TupleRef& l, const TupleRef* r) const override {
    if (integral_) {
      const int64_t a = lhs_->EvalInt64(l, r);
      const int64_t b = rhs_->EvalInt64(l, r);
      return Apply(a, b);
    }
    const double a = lhs_->EvalDouble(l, r);
    const double b = rhs_->EvalDouble(l, r);
    return Apply(a, b);
  }

  double EvalDouble(const TupleRef& l, const TupleRef* r) const override {
    return EvalBool(l, r) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(const TupleRef& l, const TupleRef* r) const override {
    return EvalBool(l, r) ? 1 : 0;
  }
  DataType output_type() const override { return DataType::kInt32; }

  std::string ToString() const override {
    // += instead of `"(" + ...`: see ArithmeticExpr::ToString (GCC PR 105651).
    static const char* kOps[] = {"<", "<=", "==", "!=", ">=", ">"};
    std::string out = "(";
    out += lhs_->ToString();
    out += ' ';
    out += kOps[static_cast<int>(op_)];
    out += ' ';
    out += rhs_->ToString();
    out += ')';
    return out;
  }

 private:
  template <typename T>
  bool Apply(T a, T b) const {
    switch (op_) {
      case CompareOp::kLt: return a < b;
      case CompareOp::kLe: return a <= b;
      case CompareOp::kEq: return a == b;
      case CompareOp::kNe: return a != b;
      case CompareOp::kGe: return a >= b;
      case CompareOp::kGt: return a > b;
    }
    return false;
  }

  CompareOp op_;
  ExprPtr lhs_, rhs_;
  bool integral_;
};

class LogicalExpr final : public Expression {
 public:
  LogicalExpr(LogicalOp op, std::vector<ExprPtr> operands)
      : Expression(Kind::kLogical), op_(op), operands_(std::move(operands)) {
    SABER_CHECK(!operands_.empty());
    SABER_CHECK(op_ != LogicalOp::kNot || operands_.size() == 1);
  }

  LogicalOp op() const { return op_; }
  const std::vector<ExprPtr>& operands() const { return operands_; }

  bool EvalBool(const TupleRef& l, const TupleRef* r) const override {
    switch (op_) {
      case LogicalOp::kAnd:
        for (const auto& e : operands_) {
          if (!e->EvalBool(l, r)) return false;
        }
        return true;
      case LogicalOp::kOr:
        for (const auto& e : operands_) {
          if (e->EvalBool(l, r)) return true;
        }
        return false;
      case LogicalOp::kNot:
        return !operands_[0]->EvalBool(l, r);
    }
    return false;
  }

  double EvalDouble(const TupleRef& l, const TupleRef* r) const override {
    return EvalBool(l, r) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(const TupleRef& l, const TupleRef* r) const override {
    return EvalBool(l, r) ? 1 : 0;
  }
  DataType output_type() const override { return DataType::kInt32; }

  std::string ToString() const override {
    // += instead of `"!" + ...`: see ArithmeticExpr::ToString (GCC PR 105651).
    if (op_ == LogicalOp::kNot) {
      std::string out = "!";
      out += operands_[0]->ToString();
      return out;
    }
    std::string sep = op_ == LogicalOp::kAnd ? " && " : " || ";
    std::string out = "(";
    for (size_t i = 0; i < operands_.size(); ++i) {
      if (i > 0) out += sep;
      out += operands_[i]->ToString();
    }
    return out + ")";
  }

 private:
  LogicalOp op_;
  std::vector<ExprPtr> operands_;
};

// ---------------------------------------------------------------------------
// Builder helpers. Example:
//   auto pred = And({Gt(Col(s, "speed"), Lit(40.0)), Eq(Col(s, "lane"), Lit(2))});
// ---------------------------------------------------------------------------

inline ExprPtr Col(const Schema& schema, const std::string& name,
                   Side side = Side::kLeft) {
  const int idx = schema.FieldIndex(name);
  SABER_CHECK(idx >= 0);
  return std::make_shared<ColumnExpr>(static_cast<size_t>(idx),
                                      schema.field(idx).type, side);
}
inline ExprPtr ColAt(const Schema& schema, size_t idx, Side side = Side::kLeft) {
  return std::make_shared<ColumnExpr>(idx, schema.field(idx).type, side);
}
inline ExprPtr Lit(double v) { return std::make_shared<LiteralExpr>(v); }
inline ExprPtr Lit(int64_t v) { return std::make_shared<LiteralExpr>(v); }
inline ExprPtr Lit(int v) { return std::make_shared<LiteralExpr>(static_cast<int64_t>(v)); }

inline ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr Div(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kDiv, std::move(a), std::move(b));
}
inline ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kMod, std::move(a), std::move(b));
}

inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr Le(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kGt, std::move(a), std::move(b));
}

inline ExprPtr And(std::vector<ExprPtr> es) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(es));
}
inline ExprPtr Or(std::vector<ExprPtr> es) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(es));
}
inline ExprPtr Not(ExprPtr e) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::vector<ExprPtr>{std::move(e)});
}

}  // namespace saber
