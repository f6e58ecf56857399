#include "opt/cardinality.h"

#include <algorithm>
#include <cmath>

#include "plan/analysis.h"

namespace dynopt {

namespace {

/// Selinger defaults for predicates the optimizer is blind to (UDFs,
/// parameters, or no statistics): 1/10 for equalities, 1/3 for ranges [28].
constexpr double kDefaultEqSelectivity = 0.1;
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;

}  // namespace

double CardinalityEstimator::ConjunctSelectivity(
    const std::string& alias, const ExprPtr& conjunct) const {
  PredicateShape shape = AnalyzePredicates({conjunct});
  auto simple = ExtractSimpleCondition(conjunct);
  if (!simple.has_value() || shape.has_udf || shape.has_param ||
      options_.cardinality_only) {
    // Complex predicate: the optimizer is blind; use Selinger defaults.
    // BETWEEN and inequality comparisons default to 1/3, equality to 1/10.
    if (conjunct->kind() == ExprKind::kBetween) {
      return kDefaultRangeSelectivity;
    }
    if (conjunct->kind() == ExprKind::kComparison) {
      CompareOp op = static_cast<const ComparisonExpr&>(*conjunct).op();
      return op == CompareOp::kEq ? kDefaultEqSelectivity
                                  : kDefaultRangeSelectivity;
    }
    return kDefaultEqSelectivity;
  }
  const ColumnStatsSnapshot* col = view_->Column(alias, simple->column);
  if (col == nullptr) {
    if (simple->is_between) return kDefaultRangeSelectivity;
    return simple->op == CompareOp::kEq ? kDefaultEqSelectivity
                                        : kDefaultRangeSelectivity;
  }
  if (simple->is_between) {
    return col->EstimateRangeSelectivity(simple->lo, simple->hi);
  }
  switch (simple->op) {
    case CompareOp::kEq:
      return col->EstimateEqSelectivity(simple->value);
    case CompareOp::kNe:
      return 1.0 - col->EstimateEqSelectivity(simple->value);
    case CompareOp::kLt:
    case CompareOp::kLe:
      return col->EstimateRangeSelectivity(Value::Null(), simple->value);
    case CompareOp::kGt:
    case CompareOp::kGe:
      return col->EstimateRangeSelectivity(simple->value, Value::Null());
  }
  return kDefaultRangeSelectivity;
}

double CardinalityEstimator::EstimatePredicateSelectivity(
    const std::string& alias) const {
  double selectivity = 1.0;
  for (const auto& pred : view_->spec().PredicatesFor(alias)) {
    for (const auto& conjunct : SplitConjuncts(pred)) {
      selectivity *= ConjunctSelectivity(alias, conjunct);
    }
  }
  return std::clamp(selectivity, 0.0, 1.0);
}

double CardinalityEstimator::EstimateFilteredSize(
    const std::string& alias) const {
  return view_->RowCount(alias) * EstimatePredicateSelectivity(alias);
}

double CardinalityEstimator::EstimateFilteredBytes(
    const std::string& alias) const {
  return view_->TotalBytes(alias) * EstimatePredicateSelectivity(alias);
}

std::shared_ptr<const JoinKeySketch> CardinalityEstimator::SketchFor(
    const std::string& alias, const std::string& key) const {
  if (sketches_ == nullptr) return nullptr;
  const TableRef* ref = view_->spec().FindRef(alias);
  if (ref == nullptr) return nullptr;
  if (ref->is_intermediate) {
    // Intermediates register sketches under the qualified names their
    // columns keep; no base-table fallback — a base sketch would describe
    // the dataset *before* the predicates this intermediate already
    // executed.
    return sketches_->Get(ref->table, key);
  }
  const std::string prefix = alias + ".";
  return sketches_->Get(ref->table, key.rfind(prefix, 0) == 0
                                        ? key.substr(prefix.size())
                                        : key);
}

double CardinalityEstimator::SketchJoinCardinality(
    const JoinEdge& edge, double left_size_override,
    double right_size_override) const {
  if (sketches_ == nullptr || edge.keys.size() != 1) return -1.0;
  auto left = SketchFor(edge.left_alias, edge.keys[0].first);
  auto right = SketchFor(edge.right_alias, edge.keys[0].second);
  if (left == nullptr || right == nullptr) return -1.0;
  const double dot = left->agms.JoinSizeEstimate(right->agms);
  if (dot < 0) return -1.0;  // Shape/seed mismatch: not comparable.
  // The sketches describe the full datasets they were built over; a side
  // restricted below that (local predicates not yet executed, or a caller
  // override from DP enumeration) shrinks the estimate proportionally —
  // the same containment assumption formula (1) makes.
  auto restriction = [this](const std::string& alias, double size_override,
                            uint64_t sketched_rows) {
    const double size = size_override >= 0
                            ? size_override
                            : EstimateFilteredSize(alias);
    if (sketched_rows == 0) return 1.0;
    return std::clamp(size / static_cast<double>(sketched_rows), 0.0, 1.0);
  };
  return dot *
         restriction(edge.left_alias, left_size_override, left->rows) *
         restriction(edge.right_alias, right_size_override, right->rows);
}

double CardinalityEstimator::EstimateJoinCardinality(
    const JoinEdge& edge, double left_size_override,
    double right_size_override) const {
  double left_size = left_size_override >= 0
                         ? left_size_override
                         : EstimateFilteredSize(edge.left_alias);
  double right_size = right_size_override >= 0
                          ? right_size_override
                          : EstimateFilteredSize(edge.right_alias);
  if (options_.cardinality_only) {
    // INGRES persona: no distinct-count information; a crude proxy that
    // only reflects input sizes.
    return std::max(left_size, right_size);
  }
  // Formula (1) per key column: divide by max(U_left, U_right). For
  // composite keys we take the largest per-column divisor rather than the
  // product — multiplying independent per-column NDVs wildly exceeds the
  // number of key combinations that actually exist (e.g. partsupp's
  // (partkey, suppkey) domain is 4 x part, not part x supplier) and makes
  // fact-to-fact joins look spuriously cheap.
  // When a side was filtered, its key ndv shrinks proportionally (standard
  // containment assumption): scale the base ndv by the filtered fraction.
  double left_base = view_->RowCount(edge.left_alias);
  double right_base = view_->RowCount(edge.right_alias);
  double left_scale = (left_base > 0 && left_size < left_base)
                          ? left_size / left_base
                          : 1.0;
  double right_scale = (right_base > 0 && right_size < right_base)
                           ? right_size / right_base
                           : 1.0;
  double denom = 1.0;
  for (const auto& [left_key, right_key] : edge.keys) {
    const ColumnStatsSnapshot* lc = view_->Column(edge.left_alias, left_key);
    const ColumnStatsSnapshot* rc = view_->Column(edge.right_alias, right_key);
    double u_l = (lc != nullptr && lc->ndv > 0) ? lc->ndv : left_size;
    double u_r = (rc != nullptr && rc->ndv > 0) ? rc->ndv : right_size;
    u_l = std::max(1.0, u_l * left_scale);
    u_r = std::max(1.0, u_r * right_scale);
    denom = std::max(denom, std::max(u_l, u_r));
  }
  return left_size * right_size / denom;
}

}  // namespace dynopt
