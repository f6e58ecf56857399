#include "opt/planner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "opt/cost_model.h"

namespace dynopt {

std::string PlannedJoin::ToString() const {
  std::ostringstream os;
  os << edge.ToString() << " [" << JoinMethodName(method)
     << ", build=" << build_alias << ", est_rows=" << estimated_cardinality
     << "]";
  return os.str();
}

Planner::Planner(const StatsView* view, const ClusterConfig& cluster,
                 const PlannerOptions& options, const SelectivityRisk* risk,
                 const SketchManager* sketches)
    : view_(view),
      cluster_(cluster),
      options_(options),
      risk_(risk),
      estimator_(view, options.estimation) {
  if (sketches != nullptr) estimator_.SetSketches(sketches);
}

double Planner::EstimateEdgeCardinality(const JoinEdge& edge,
                                        double left_override,
                                        double right_override,
                                        std::string* provenance) const {
  if (estimator_.has_sketches()) {
    double card =
        estimator_.SketchJoinCardinality(edge, left_override, right_override);
    if (card >= 0) {
      if (provenance != nullptr) *provenance = "sketch";
      return card;
    }
    if (provenance != nullptr) *provenance = "stats";
  } else if (provenance != nullptr) {
    provenance->clear();
  }
  return estimator_.EstimateJoinCardinality(edge, left_override,
                                            right_override);
}

bool Planner::InljApplicable(const JoinEdge& edge,
                             const std::string& outer_alias,
                             const std::string& inner_alias) const {
  if (!options_.enable_inlj) return false;
  if (edge.keys.size() != 1) return false;
  const QuerySpec& spec = view_->spec();
  const TableRef* inner = spec.FindRef(inner_alias);
  if (inner == nullptr || inner->is_intermediate) return false;
  // An index lookup replaces the inner pipeline; local predicates on the
  // inner would be lost, so a filtered inner disqualifies INLJ.
  if (inner->filtered || !spec.PredicatesFor(inner_alias).empty()) {
    return false;
  }
  // The broadcast side must be filtered (paper Section 6.1.2), otherwise a
  // plain broadcast that scans the inner once is preferred.
  if (!outer_alias.empty()) {
    const TableRef* outer = spec.FindRef(outer_alias);
    if (outer == nullptr || !(outer->filtered || outer->is_intermediate)) {
      return false;
    }
  }
  // The inner must have a secondary index on (the unqualified form of) its
  // join key column.
  std::string key = edge.KeysOf(inner_alias)[0];
  const std::string prefix = inner_alias + ".";
  if (key.rfind(prefix, 0) == 0) key = key.substr(prefix.size());
  if (view_->catalog() == nullptr) return false;
  auto table = view_->catalog()->GetTable(inner->table);
  if (!table.ok()) return false;
  return table.value()->HasSecondaryIndex(key);
}

PlannedJoin Planner::DecorateWithMethod(const JoinEdge& edge, double card,
                                        double left_rows, double left_bytes,
                                        double right_rows,
                                        double right_bytes) const {
  PlannedJoin planned;
  planned.edge = edge;
  planned.estimated_cardinality = card;
  const double left_width = left_rows > 0 ? left_bytes / left_rows : 64.0;
  const double right_width = right_rows > 0 ? right_bytes / right_rows : 64.0;
  planned.estimated_bytes = card * (left_width + right_width);

  // Pessimistic-bound sizes: risk widens the inputs (per-alias) and the
  // output (the worst of input factors and the global factor — a join can
  // not be more trustworthy than its least-trusted input). The *expected*
  // estimates above are what the decision log reports; the pessimistic ones
  // drive every choice below (build side, broadcast eligibility, costs).
  // With no risk all factors are 1 and nothing changes.
  const double lf = RiskFactor(edge.left_alias);
  const double rf = RiskFactor(edge.right_alias);
  const double of = std::max(std::max(lf, rf),
                             risk_ == nullptr ? 1.0 : risk_->global_factor);
  const double p_left_rows = left_rows * lf;
  const double p_left_bytes = left_bytes * lf;
  const double p_right_rows = right_rows * rf;
  const double p_right_bytes = right_bytes * rf;
  const double p_card = card * of;

  const bool left_small = p_left_bytes <= p_right_bytes;
  const std::string& small_alias =
      left_small ? edge.left_alias : edge.right_alias;
  const std::string& large_alias =
      left_small ? edge.right_alias : edge.left_alias;
  const double small_rows = left_small ? p_left_rows : p_right_rows;
  const double small_bytes = left_small ? p_left_bytes : p_right_bytes;
  const double large_rows = left_small ? p_right_rows : p_left_rows;
  const double large_bytes = left_small ? p_right_bytes : p_left_bytes;

  JoinCostInputs in;
  in.build_rows = small_rows;
  in.build_bytes = small_bytes;
  in.probe_rows = large_rows;
  in.probe_bytes = large_bytes;
  in.out_rows = p_card;
  in.out_bytes = p_card * (left_width + right_width);
  if (cluster_.risk.spill_aware_costing) {
    in.memory_budget_bytes = cluster_.memory.join_memory_budget_bytes;
  }

  // Hash join is the default (Section 3); the build side is the smaller
  // input either way. Every costed-but-not-chosen method lands in
  // `rejected` so the decision log can show the full algorithm choice.
  auto method_alternative = [&](JoinMethod method, double cost) {
    PlanAlternative alt;
    alt.description = std::string("method: ") + JoinMethodName(method) +
                      " (build=" + small_alias + ")";
    alt.cost = cost;
    return alt;
  };
  planned.method = JoinMethod::kHashShuffle;
  planned.build_alias = small_alias;
  double best_cost =
      EstimateJoinExecCost(JoinMethod::kHashShuffle, in, cluster_, 0.0);
  DYNOPT_LOG(kDebug) << "decorate " << edge.ToString() << " card=" << card
                     << " l=(" << left_rows << "," << left_bytes << ") r=("
                     << right_rows << "," << right_bytes
                     << ") hash=" << best_cost;

  if (small_bytes <= static_cast<double>(cluster_.broadcast_threshold_bytes)) {
    double cost =
        EstimateJoinExecCost(JoinMethod::kBroadcast, in, cluster_, 0.0);
    if (cost < best_cost) {
      planned.rejected.push_back(
          method_alternative(planned.method, best_cost));
      best_cost = cost;
      planned.method = JoinMethod::kBroadcast;
      planned.build_alias = small_alias;
    } else {
      planned.rejected.push_back(
          method_alternative(JoinMethod::kBroadcast, cost));
    }
    if (InljApplicable(edge, small_alias, large_alias)) {
      // Probing the index skips the inner scan; credit that saving.
      double cost_inlj = EstimateJoinExecCost(JoinMethod::kIndexNestedLoop,
                                              in, cluster_, large_bytes);
      if (cost_inlj < best_cost) {
        planned.rejected.push_back(
            method_alternative(planned.method, best_cost));
        best_cost = cost_inlj;
        planned.method = JoinMethod::kIndexNestedLoop;
        planned.build_alias = small_alias;
      } else {
        planned.rejected.push_back(
            method_alternative(JoinMethod::kIndexNestedLoop, cost_inlj));
      }
    }
  }
  planned.estimated_cost = best_cost;
  return planned;
}

Result<PlannedJoin> Planner::PickNextJoin() const {
  const QuerySpec& spec = view_->spec();
  if (spec.joins.empty()) {
    return Status::InvalidArgument("no joins left to plan");
  }
  // Estimate all edges first, then decorate the winner; losing edges are
  // recorded as join-order alternatives (cost = estimated result rows).
  std::vector<double> cards;
  std::vector<std::string> provenances(spec.joins.size());
  cards.reserve(spec.joins.size());
  size_t best_index = 0;
  double best_pessimistic = 0;
  for (size_t i = 0; i < spec.joins.size(); ++i) {
    const JoinEdge& e = spec.joins[i];
    cards.push_back(EstimateEdgeCardinality(e, -1.0, -1.0, &provenances[i]));
    // Rank edges by the pessimistic bound: an edge whose inputs have a
    // history of misestimation must look worse than its expected rows.
    // (The shared global factor cancels out of the ranking, so only the
    // per-alias factors matter here.)
    const double pessimistic =
        cards[i] *
        std::max(RiskFactor(e.left_alias), RiskFactor(e.right_alias));
    if (i == 0 || pessimistic < best_pessimistic) {
      best_index = i;
      best_pessimistic = pessimistic;
    }
  }
  const JoinEdge& edge = spec.joins[best_index];
  PlannedJoin best = DecorateWithMethod(
      edge, cards[best_index], estimator_.EstimateFilteredSize(edge.left_alias),
      estimator_.EstimateFilteredBytes(edge.left_alias),
      estimator_.EstimateFilteredSize(edge.right_alias),
      estimator_.EstimateFilteredBytes(edge.right_alias));
  best.provenance = provenances[best_index];
  for (size_t i = 0; i < spec.joins.size(); ++i) {
    if (i == best_index) continue;
    PlanAlternative alt;
    alt.description = "join-order: " + spec.joins[i].ToString();
    alt.cost = cards[i];
    best.rejected.push_back(std::move(alt));
  }
  return best;
}

Result<std::shared_ptr<const JoinTree>> Planner::PlanRemaining(
    std::vector<PlannedJoin>* steps) const {
  const QuerySpec& spec = view_->spec();
  if (spec.joins.size() > 2) {
    return Status::InvalidArgument(
        "PlanRemaining expects at most two remaining joins");
  }
  if (spec.joins.empty()) {
    if (spec.tables.size() != 1) {
      return Status::InvalidArgument("join-less query with multiple tables");
    }
    return JoinTree::Leaf(spec.tables[0].alias);
  }

  DYNOPT_ASSIGN_OR_RETURN(PlannedJoin first, PickNextJoin());
  const std::string& build = first.build_alias;
  const std::string& probe = first.edge.Other(build);
  auto inner_tree = JoinTree::Join(JoinTree::Leaf(build),
                                   JoinTree::Leaf(probe), first.method);

  if (spec.joins.size() == 1) {
    if (steps != nullptr) steps->push_back(std::move(first));
    return inner_tree;
  }

  // Two joins / three datasets: attach the remaining dataset on top,
  // ordered by result cardinality (the smaller join goes innermost, which
  // PickNextJoin already guarantees).
  const JoinEdge* outer_edge = nullptr;
  for (const auto& edge : spec.joins) {
    if (edge.left_alias == first.edge.left_alias &&
        edge.right_alias == first.edge.right_alias) {
      continue;
    }
    outer_edge = &edge;
    break;
  }
  if (outer_edge == nullptr) {
    return Status::Internal("could not locate the second remaining join");
  }
  // Which side of the outer edge is the third dataset?
  const std::string& third = first.edge.Involves(outer_edge->left_alias)
                                 ? outer_edge->right_alias
                                 : outer_edge->left_alias;
  const std::string& inner_side = outer_edge->Other(third);

  // Size estimates: the joined pair behaves as `first`'s output.
  double third_rows = estimator_.EstimateFilteredSize(third);
  double third_bytes = estimator_.EstimateFilteredBytes(third);
  double pair_rows = first.estimated_cardinality;
  double pair_bytes = first.estimated_bytes;
  double card;
  std::string outer_provenance;
  if (outer_edge->left_alias == inner_side) {
    card = EstimateEdgeCardinality(*outer_edge, pair_rows, third_rows,
                                   &outer_provenance);
  } else {
    card = EstimateEdgeCardinality(*outer_edge, third_rows, pair_rows,
                                   &outer_provenance);
  }
  PlannedJoin outer;
  if (outer_edge->left_alias == inner_side) {
    outer = DecorateWithMethod(*outer_edge, card, pair_rows, pair_bytes,
                               third_rows, third_bytes);
  } else {
    outer = DecorateWithMethod(*outer_edge, card, third_rows, third_bytes,
                               pair_rows, pair_bytes);
  }
  outer.provenance = std::move(outer_provenance);

  // Build side of the outer join: the smaller input (per DecorateWithMethod
  // `build_alias`); when the pair side is the build, the subtree goes left.
  std::shared_ptr<const JoinTree> third_leaf = JoinTree::Leaf(third);
  bool pair_is_build = outer.build_alias == inner_side;
  if (outer.method == JoinMethod::kIndexNestedLoop) {
    // The indexed inner must be the leaf (base dataset); the subtree is
    // necessarily the broadcast outer.
    if (outer.build_alias != inner_side) {
      // The planner chose to broadcast the third dataset into an index on
      // the pair — impossible since the pair is an intermediate; fall back
      // to broadcast.
      outer.method = JoinMethod::kBroadcast;
      pair_is_build = false;
    } else {
      pair_is_build = true;
    }
  }
  std::shared_ptr<const JoinTree> full =
      pair_is_build ? JoinTree::Join(inner_tree, third_leaf, outer.method)
                    : JoinTree::Join(third_leaf, inner_tree, outer.method);
  if (steps != nullptr) {
    steps->push_back(std::move(first));
    steps->push_back(std::move(outer));
  }
  return full;
}

}  // namespace dynopt
