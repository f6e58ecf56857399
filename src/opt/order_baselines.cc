#include "opt/order_baselines.h"

#include <algorithm>
#include <set>

#include "opt/cardinality.h"
#include "opt/explain.h"
#include "opt/static_execution.h"
#include "opt/stats_view.h"

namespace dynopt {

namespace {

/// A join-less query has exactly one order, so both baselines run the bare
/// scan. Keeps single-table queries — notably `SELECT * FROM sys.*`
/// introspection scans — working under every strategy.
Result<OptimizerRunResult> RunSingleTable(Engine* engine,
                                          const QuerySpec& spec,
                                          const std::string& optimizer,
                                          QueryContext* ctx) {
  PlanDecision decision;
  decision.point = "single-table";
  return ExecuteTreeAsSingleJob(engine, spec,
                                JoinTree::Leaf(spec.tables[0].alias),
                                optimizer, std::move(decision), ctx);
}

}  // namespace

WorstOrderOptimizer::WorstOrderOptimizer(Engine* engine,
                                         const PlannerOptions& options)
    : engine_(engine), options_(options) {}

Result<OptimizerRunResult> WorstOrderOptimizer::Run(const QuerySpec& query) {
  QuerySpec spec = query;
  spec.NormalizeJoins();
  DYNOPT_RETURN_IF_ERROR(spec.Validate());
  DYNOPT_RETURN_IF_ERROR(CheckContext());
  if (spec.tables.size() < 2) {
    return RunSingleTable(engine_, spec, name(), ctx_);
  }
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  CardinalityEstimator estimator(&view, options_.estimation);

  // Greedy chain: start from the edge with the largest estimated result,
  // then repeatedly attach the neighbor that maximizes the next join's
  // estimated result. All joins are plain (shuffle) hash joins.
  const JoinEdge* seed = nullptr;
  double seed_card = -1.0;
  for (const auto& edge : spec.joins) {
    double card = estimator.EstimateJoinCardinality(edge);
    if (card > seed_card) {
      seed_card = card;
      seed = &edge;
    }
  }
  if (seed == nullptr) {
    return Status::InvalidArgument("no join edges");
  }
  std::set<std::string> in_chain{seed->left_alias, seed->right_alias};
  std::shared_ptr<const JoinTree> tree =
      JoinTree::Join(JoinTree::Leaf(seed->left_alias),
                     JoinTree::Leaf(seed->right_alias),
                     JoinMethod::kHashShuffle);
  double chain_rows = seed_card;

  while (in_chain.size() < spec.tables.size()) {
    const JoinEdge* best_edge = nullptr;
    std::string best_next;
    double best_card = -1.0;
    for (const auto& edge : spec.joins) {
      bool l_in = in_chain.count(edge.left_alias) > 0;
      bool r_in = in_chain.count(edge.right_alias) > 0;
      if (l_in == r_in) continue;  // Internal or disconnected edge.
      const std::string& next = l_in ? edge.right_alias : edge.left_alias;
      double card = l_in ? estimator.EstimateJoinCardinality(
                               edge, chain_rows,
                               estimator.EstimateFilteredSize(next))
                         : estimator.EstimateJoinCardinality(
                               edge, estimator.EstimateFilteredSize(next),
                               chain_rows);
      if (card > best_card) {
        best_card = card;
        best_edge = &edge;
        best_next = next;
      }
    }
    if (best_edge == nullptr) {
      return Status::InvalidArgument("join graph disconnected");
    }
    tree = JoinTree::Join(tree, JoinTree::Leaf(best_next),
                          JoinMethod::kHashShuffle);
    in_chain.insert(best_next);
    chain_rows = best_card;
  }
  PlanDecision decision;
  decision.point = "initial-plan";
  decision.estimated_rows = chain_rows;  // Greedy chain's final estimate.
  return ExecuteTreeAsSingleJob(engine_, spec, std::move(tree), name(),
                                std::move(decision), ctx_);
}

BestOrderOptimizer::BestOrderOptimizer(Engine* engine,
                                       std::shared_ptr<const JoinTree> hint)
    : engine_(engine), hint_(std::move(hint)) {}

Result<OptimizerRunResult> BestOrderOptimizer::Run(const QuerySpec& query) {
  QuerySpec spec = query;
  spec.NormalizeJoins();
  DYNOPT_RETURN_IF_ERROR(spec.Validate());
  if (spec.tables.size() < 2) {
    return RunSingleTable(engine_, spec, name(), ctx_);
  }
  if (hint_ == nullptr) {
    return Status::InvalidArgument(
        "best-order requires a join-tree hint (run the dynamic optimizer "
        "first and pass its join_tree)");
  }
  // Sanity: the hint must cover exactly the query's aliases.
  std::set<std::string> hint_aliases = hint_->Aliases();
  std::set<std::string> query_aliases;
  for (const auto& ref : spec.tables) query_aliases.insert(ref.alias);
  if (hint_aliases != query_aliases) {
    return Status::InvalidArgument(
        "best-order hint aliases do not match the query");
  }
  PlanDecision decision;
  decision.point = "hinted-plan";
  DYNOPT_ASSIGN_OR_RETURN(decision.estimated_rows,
                          EstimateTreeCardinality(engine_, spec, *hint_));
  return ExecuteTreeAsSingleJob(engine_, spec, hint_, name(),
                                std::move(decision), ctx_);
}

}  // namespace dynopt
