#include "plan/expr.h"

#include <optional>
#include <sstream>

#include "plan/udf.h"

namespace dynopt {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string ComparisonExpr::ToString() const {
  return left_->ToString() + " " + CompareOpName(op_) + " " +
         right_->ToString();
}

std::string BetweenExpr::ToString() const {
  return input_->ToString() + " BETWEEN " + lo_->ToString() + " AND " +
         hi_->ToString();
}

namespace {
std::string JoinChildren(const std::vector<ExprPtr>& children,
                         const char* sep) {
  std::ostringstream os;
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) os << sep;
    os << "(" << children[i]->ToString() << ")";
  }
  return os.str();
}
}  // namespace

std::string AndExpr::ToString() const {
  return JoinChildren(children_, " AND ");
}

std::string OrExpr::ToString() const { return JoinChildren(children_, " OR "); }

std::string UdfCallExpr::ToString() const {
  std::ostringstream os;
  os << name_ << "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) os << ", ";
    os << args_[i]->ToString();
  }
  os << ")";
  return os.str();
}

ExprPtr Col(std::string alias, std::string column) {
  return std::make_shared<ColumnRefExpr>(std::move(alias), std::move(column));
}
ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Param(std::string name) {
  return std::make_shared<ParamExpr>(std::move(name));
}
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<ComparisonExpr>(op, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kEq, std::move(l), std::move(r));
}
ExprPtr Between(ExprPtr in, ExprPtr lo, ExprPtr hi) {
  return std::make_shared<BetweenExpr>(std::move(in), std::move(lo),
                                       std::move(hi));
}
ExprPtr And(std::vector<ExprPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<AndExpr>(std::move(children));
}
ExprPtr Or(std::vector<ExprPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<OrExpr>(std::move(children));
}
ExprPtr Not(ExprPtr child) { return std::make_shared<NotExpr>(std::move(child)); }
ExprPtr Udf(std::string name, std::vector<ExprPtr> args) {
  return std::make_shared<UdfCallExpr>(std::move(name), std::move(args));
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (!expr) return out;
  if (expr->kind() == ExprKind::kAnd) {
    const auto& and_expr = static_cast<const AndExpr&>(*expr);
    for (const auto& child : and_expr.children()) {
      auto nested = SplitConjuncts(child);
      out.insert(out.end(), nested.begin(), nested.end());
    }
  } else {
    out.push_back(expr);
  }
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  if (conjuncts.size() == 1) return conjuncts[0];
  return And(std::move(conjuncts));
}

namespace {

/// SQL truth value of `v`: NULL is unknown (nullopt); a bool is itself, a
/// number is true when non-zero and anything else is false.
std::optional<bool> TruthOf(const Value& v) {
  if (v.is_null()) return std::nullopt;
  switch (v.type()) {
    case ValueType::kBool:
      return v.AsBool();
    case ValueType::kInt64:
      return v.AsInt64() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    default:
      return false;
  }
}

}  // namespace

bool BoundExpr::EvalBool(const Row& row) const {
  return TruthOf(Eval(row)).value_or(false);
}

namespace {

class BoundColumn : public BoundExpr {
 public:
  explicit BoundColumn(int slot) : slot_(slot) {}
  Value Eval(const Row& row) const override {
    return row[static_cast<size_t>(slot_)];
  }

 private:
  int slot_;
};

class BoundLiteral : public BoundExpr {
 public:
  explicit BoundLiteral(Value v) : value_(std::move(v)) {}
  Value Eval(const Row&) const override { return value_; }

 private:
  Value value_;
};

class BoundComparison : public BoundExpr {
 public:
  BoundComparison(CompareOp op, BoundExprPtr l, BoundExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}
  Value Eval(const Row& row) const override {
    Value l = left_->Eval(row);
    Value r = right_->Eval(row);
    if (l.is_null() || r.is_null()) return Value::Null();
    int c = l.Compare(r);
    bool result = false;
    switch (op_) {
      case CompareOp::kEq:
        result = c == 0;
        break;
      case CompareOp::kNe:
        result = c != 0;
        break;
      case CompareOp::kLt:
        result = c < 0;
        break;
      case CompareOp::kLe:
        result = c <= 0;
        break;
      case CompareOp::kGt:
        result = c > 0;
        break;
      case CompareOp::kGe:
        result = c >= 0;
        break;
    }
    return Value(result);
  }

 private:
  CompareOp op_;
  BoundExprPtr left_;
  BoundExprPtr right_;
};

class BoundBetween : public BoundExpr {
 public:
  BoundBetween(BoundExprPtr in, BoundExprPtr lo, BoundExprPtr hi)
      : input_(std::move(in)), lo_(std::move(lo)), hi_(std::move(hi)) {}
  Value Eval(const Row& row) const override {
    // v >= lo AND v <= hi under Kleene AND: a NULL bound is unknown, but
    // the other bound can still make the whole FALSE.
    Value v = input_->Eval(row);
    Value lo = lo_->Eval(row);
    Value hi = hi_->Eval(row);
    if (v.is_null()) return Value::Null();
    if (!lo.is_null() && !(v >= lo)) return Value(false);
    if (!hi.is_null() && !(v <= hi)) return Value(false);
    if (lo.is_null() || hi.is_null()) return Value::Null();
    return Value(true);
  }

 private:
  BoundExprPtr input_;
  BoundExprPtr lo_;
  BoundExprPtr hi_;
};

class BoundAnd : public BoundExpr {
 public:
  explicit BoundAnd(std::vector<BoundExprPtr> children)
      : children_(std::move(children)) {}
  /// Kleene AND: FALSE if any child is FALSE, else NULL if any is NULL.
  Value Eval(const Row& row) const override {
    bool unknown = false;
    for (const auto& child : children_) {
      const std::optional<bool> t = TruthOf(child->Eval(row));
      if (!t.has_value()) {
        unknown = true;
      } else if (!*t) {
        return Value(false);
      }
    }
    return unknown ? Value::Null() : Value(true);
  }

 private:
  std::vector<BoundExprPtr> children_;
};

class BoundOr : public BoundExpr {
 public:
  explicit BoundOr(std::vector<BoundExprPtr> children)
      : children_(std::move(children)) {}
  /// Kleene OR: TRUE if any child is TRUE, else NULL if any is NULL.
  Value Eval(const Row& row) const override {
    bool unknown = false;
    for (const auto& child : children_) {
      const std::optional<bool> t = TruthOf(child->Eval(row));
      if (!t.has_value()) {
        unknown = true;
      } else if (*t) {
        return Value(true);
      }
    }
    return unknown ? Value::Null() : Value(false);
  }

 private:
  std::vector<BoundExprPtr> children_;
};

class BoundNot : public BoundExpr {
 public:
  explicit BoundNot(BoundExprPtr child) : child_(std::move(child)) {}
  /// NOT NULL is NULL.
  Value Eval(const Row& row) const override {
    const std::optional<bool> t = TruthOf(child_->Eval(row));
    return t.has_value() ? Value(!*t) : Value::Null();
  }

 private:
  BoundExprPtr child_;
};

class BoundUdf : public BoundExpr {
 public:
  BoundUdf(const UdfFn* fn, std::vector<BoundExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}
  Value Eval(const Row& row) const override {
    std::vector<Value> values;
    values.reserve(args_.size());
    for (const auto& arg : args_) values.push_back(arg->Eval(row));
    return (*fn_)(values);
  }

 private:
  const UdfFn* fn_;
  std::vector<BoundExprPtr> args_;
};

}  // namespace

Result<BoundExprPtr> Bind(const ExprPtr& expr, const BindContext& ctx) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      const auto& col = static_cast<const ColumnRefExpr&>(*expr);
      int slot = ctx.resolve_column ? ctx.resolve_column(col.Qualified()) : -1;
      if (slot < 0) {
        return Status::BindError("unresolved column " + col.Qualified());
      }
      return BoundExprPtr(new BoundColumn(slot));
    }
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(*expr);
      return BoundExprPtr(new BoundLiteral(lit.value()));
    }
    case ExprKind::kParam: {
      const auto& param = static_cast<const ParamExpr&>(*expr);
      if (ctx.params == nullptr) {
        return Status::BindError("no parameters provided for $" +
                                 param.name());
      }
      auto it = ctx.params->find(param.name());
      if (it == ctx.params->end()) {
        return Status::BindError("unbound parameter $" + param.name());
      }
      return BoundExprPtr(new BoundLiteral(it->second));
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(*expr);
      DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr l, Bind(cmp.left(), ctx));
      DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr r, Bind(cmp.right(), ctx));
      return BoundExprPtr(
          new BoundComparison(cmp.op(), std::move(l), std::move(r)));
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(*expr);
      DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr in, Bind(between.input(), ctx));
      DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr lo, Bind(between.lo(), ctx));
      DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr hi, Bind(between.hi(), ctx));
      return BoundExprPtr(
          new BoundBetween(std::move(in), std::move(lo), std::move(hi)));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const std::vector<ExprPtr>& children =
          expr->kind() == ExprKind::kAnd
              ? static_cast<const AndExpr&>(*expr).children()
              : static_cast<const OrExpr&>(*expr).children();
      std::vector<BoundExprPtr> bound;
      bound.reserve(children.size());
      for (const auto& child : children) {
        DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(child, ctx));
        bound.push_back(std::move(b));
      }
      if (expr->kind() == ExprKind::kAnd) {
        return BoundExprPtr(new BoundAnd(std::move(bound)));
      }
      return BoundExprPtr(new BoundOr(std::move(bound)));
    }
    case ExprKind::kNot: {
      const auto& not_expr = static_cast<const NotExpr&>(*expr);
      DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr child, Bind(not_expr.child(), ctx));
      return BoundExprPtr(new BoundNot(std::move(child)));
    }
    case ExprKind::kUdfCall: {
      const auto& udf = static_cast<const UdfCallExpr&>(*expr);
      if (ctx.udfs == nullptr) {
        return Status::BindError("no UDF registry provided for " + udf.name());
      }
      const UdfFn* fn = ctx.udfs->Lookup(udf.name());
      if (fn == nullptr) {
        return Status::BindError("unregistered UDF " + udf.name());
      }
      std::vector<BoundExprPtr> args;
      args.reserve(udf.args().size());
      for (const auto& arg : udf.args()) {
        DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(arg, ctx));
        args.push_back(std::move(b));
      }
      return BoundExprPtr(new BoundUdf(fn, std::move(args)));
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace dynopt
