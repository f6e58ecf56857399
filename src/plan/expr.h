#ifndef DYNOPT_PLAN_EXPR_H_
#define DYNOPT_PLAN_EXPR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace dynopt {

class ColumnRefExpr;
class UdfRegistry;

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kParam,
  kComparison,
  kBetween,
  kAnd,
  kOr,
  kNot,
  kUdfCall,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// Immutable scalar-expression tree used for WHERE-clause predicates.
/// Expressions are built by the SQL binder (or directly by tests/examples),
/// analyzed by the optimizer for selectivity, and compiled to BoundExpr for
/// row-at-a-time evaluation.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual ExprKind kind() const = 0;
  virtual std::string ToString() const = 0;
  /// Appends every column reference in the subtree to `out`.
  virtual void CollectColumns(
      std::vector<const ColumnRefExpr*>* out) const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Reference to `alias.column` (alias may be empty for pre-qualified
/// names, e.g. columns of intermediate datasets which already carry their
/// original qualification).
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string alias, std::string column)
      : alias_(std::move(alias)), column_(std::move(column)) {}

  ExprKind kind() const override { return ExprKind::kColumnRef; }
  std::string ToString() const override { return Qualified(); }
  void CollectColumns(std::vector<const ColumnRefExpr*>* out) const override {
    out->push_back(this);
  }

  const std::string& alias() const { return alias_; }
  const std::string& column() const { return column_; }
  std::string Qualified() const {
    return alias_.empty() ? column_ : alias_ + "." + column_;
  }

 private:
  std::string alias_;
  std::string column_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  ExprKind kind() const override { return ExprKind::kLiteral; }
  std::string ToString() const override { return value_.ToString(); }
  void CollectColumns(std::vector<const ColumnRefExpr*>*) const override {}
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Named query parameter (`$name`): its value is only known at execution
/// time, so a static optimizer cannot estimate its selectivity — one of the
/// three blindness scenarios the paper targets.
class ParamExpr : public Expr {
 public:
  explicit ParamExpr(std::string name) : name_(std::move(name)) {}
  ExprKind kind() const override { return ExprKind::kParam; }
  std::string ToString() const override { return "$" + name_; }
  void CollectColumns(std::vector<const ColumnRefExpr*>*) const override {}
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  ExprKind kind() const override { return ExprKind::kComparison; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnRefExpr*>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }
  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class BetweenExpr : public Expr {
 public:
  BetweenExpr(ExprPtr input, ExprPtr lo, ExprPtr hi)
      : input_(std::move(input)), lo_(std::move(lo)), hi_(std::move(hi)) {}
  ExprKind kind() const override { return ExprKind::kBetween; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnRefExpr*>* out) const override {
    input_->CollectColumns(out);
    lo_->CollectColumns(out);
    hi_->CollectColumns(out);
  }
  const ExprPtr& input() const { return input_; }
  const ExprPtr& lo() const { return lo_; }
  const ExprPtr& hi() const { return hi_; }

 private:
  ExprPtr input_;
  ExprPtr lo_;
  ExprPtr hi_;
};

class AndExpr : public Expr {
 public:
  explicit AndExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}
  ExprKind kind() const override { return ExprKind::kAnd; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnRefExpr*>* out) const override {
    for (const auto& c : children_) c->CollectColumns(out);
  }
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  std::vector<ExprPtr> children_;
};

class OrExpr : public Expr {
 public:
  explicit OrExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}
  ExprKind kind() const override { return ExprKind::kOr; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnRefExpr*>* out) const override {
    for (const auto& c : children_) c->CollectColumns(out);
  }
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  std::vector<ExprPtr> children_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}
  ExprKind kind() const override { return ExprKind::kNot; }
  std::string ToString() const override {
    return "NOT (" + child_->ToString() + ")";
  }
  void CollectColumns(std::vector<const ColumnRefExpr*>* out) const override {
    child_->CollectColumns(out);
  }
  const ExprPtr& child() const { return child_; }

 private:
  ExprPtr child_;
};

/// Call to a registered user-defined function, e.g. myyear(o_orderdate).
/// The optimizer treats UDFs as opaque (default selectivity); execution
/// evaluates them through the UdfRegistry.
class UdfCallExpr : public Expr {
 public:
  UdfCallExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  ExprKind kind() const override { return ExprKind::kUdfCall; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnRefExpr*>* out) const override {
    for (const auto& a : args_) a->CollectColumns(out);
  }
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

// --- Construction helpers (terse expression building in tests/workloads) --

ExprPtr Col(std::string alias, std::string column);
ExprPtr Lit(Value v);
ExprPtr Param(std::string name);
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Between(ExprPtr in, ExprPtr lo, ExprPtr hi);
ExprPtr And(std::vector<ExprPtr> children);
ExprPtr Or(std::vector<ExprPtr> children);
ExprPtr Not(ExprPtr child);
ExprPtr Udf(std::string name, std::vector<ExprPtr> args);

/// Splits a conjunctive expression into its top-level conjuncts.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// Conjunction of `conjuncts` (nullptr when empty, the expr itself when 1).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

// --- Bound (executable) expressions -------------------------------------

/// Compiled expression: column references resolved to row slots, parameters
/// substituted, UDFs resolved to callables. Evaluation is row-at-a-time.
/// NOT, AND, OR and BETWEEN follow SQL's three-valued (Kleene) logic, so a
/// NULL operand can leave them NULL; only EvalBool, a filter's reading,
/// turns NULL into false.
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;
  virtual Value Eval(const Row& row) const = 0;
  /// Boolean coercion: NULL and non-bool non-true values are false.
  bool EvalBool(const Row& row) const;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Everything Bind() needs to resolve a tree.
struct BindContext {
  /// Maps a qualified column name to its row slot; returns -1 when unknown.
  std::function<int(const std::string&)> resolve_column;
  /// Parameter bindings; nullptr means "no parameters".
  const std::map<std::string, Value>* params = nullptr;
  /// UDF registry; nullptr means "no UDFs allowed".
  const UdfRegistry* udfs = nullptr;
};

/// Compiles `expr` against `ctx`; fails with kBindError on unresolvable
/// columns, unknown parameters or unregistered UDFs.
Result<BoundExprPtr> Bind(const ExprPtr& expr, const BindContext& ctx);

}  // namespace dynopt

#endif  // DYNOPT_PLAN_EXPR_H_
