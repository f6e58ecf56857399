#include "opt/static_optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "opt/cost_model.h"
#include "opt/error_stats.h"
#include "opt/plan_builder.h"
#include "opt/static_execution.h"

namespace dynopt {

namespace {

/// DP table entry for one alias subset.
struct DpEntry {
  double rows = 0;
  double bytes = 0;
  double cost = std::numeric_limits<double>::infinity();
  std::shared_ptr<const JoinTree> tree;
  bool filtered = false;  ///< Any member filtered (INLJ outer condition).
};

/// True when the (single-key) INLJ is structurally possible with `inner`
/// as the indexed base inner.
bool InljApplicableForSets(
    const QuerySpec& spec, const Catalog* catalog,
    const std::vector<std::pair<std::string, std::string>>& keys,
    const std::string& inner_alias, bool outer_filtered) {
  if (keys.size() != 1) return false;
  if (!outer_filtered) return false;
  const TableRef* inner = spec.FindRef(inner_alias);
  if (inner == nullptr || inner->is_intermediate) return false;
  if (inner->filtered || !spec.PredicatesFor(inner_alias).empty()) {
    return false;
  }
  std::string key = keys[0].second;
  const std::string prefix = inner_alias + ".";
  if (key.rfind(prefix, 0) == 0) key = key.substr(prefix.size());
  if (catalog == nullptr) return false;
  auto table = catalog->GetTable(inner->table);
  if (!table.ok()) return false;
  return table.value()->HasSecondaryIndex(key);
}

}  // namespace

StaticCostBasedOptimizer::StaticCostBasedOptimizer(
    Engine* engine, const PlannerOptions& options)
    : engine_(engine), options_(options) {}

Result<std::shared_ptr<const JoinTree>> StaticCostBasedOptimizer::PlanWithDp(
    const QuerySpec& spec, const StatsView& view, const ClusterConfig& cluster,
    const PlannerOptions& options, double* est_rows, double* est_cost,
    const SelectivityRisk* risk) {
  CardinalityEstimator estimator(&view, options.estimation);
  const size_t k = spec.tables.size();
  if (k == 0) return Status::InvalidArgument("empty FROM clause");
  if (k > 20) {
    return Status::InvalidArgument("DP enumeration capped at 20 datasets");
  }
  std::vector<std::string> aliases;
  aliases.reserve(k);
  for (const auto& ref : spec.tables) aliases.push_back(ref.alias);
  auto alias_bit = [&](const std::string& alias) -> uint32_t {
    for (size_t i = 0; i < k; ++i) {
      if (aliases[i] == alias) return 1u << i;
    }
    return 0;
  };

  const uint32_t full = k == 32 ? ~0u : (1u << k) - 1;
  std::vector<DpEntry> dp(static_cast<size_t>(full) + 1);

  // Per-edge join-selectivity denominators, consistent across DP splits:
  // card(S) = prod(sizes) * prod over internal edges of 1/denominator.
  struct EdgeFactor {
    uint32_t mask;
    double denominator;
  };
  std::vector<EdgeFactor> edge_factors;
  for (const auto& edge : spec.joins) {
    double left_size = estimator.EstimateFilteredSize(edge.left_alias);
    double right_size = estimator.EstimateFilteredSize(edge.right_alias);
    double card = estimator.EstimateJoinCardinality(edge);
    double product = std::max(1.0, left_size) * std::max(1.0, right_size);
    double denom = card > 0 ? product / card : product;
    edge_factors.push_back(
        {alias_bit(edge.left_alias) | alias_bit(edge.right_alias),
         std::max(1.0, denom)});
  }
  // Pessimistic widening per subset (see header): 1 everywhere when risk
  // is null/neutral, so the DP arithmetic is bit-identical in that case.
  std::vector<double> leaf_factor(k, 1.0);
  double global_factor = 1.0;
  if (risk != nullptr) {
    global_factor = std::max(1.0, risk->global_factor);
    for (size_t i = 0; i < k; ++i) {
      leaf_factor[i] = std::max(1.0, risk->FactorFor(aliases[i]));
    }
  }
  auto widen = [&](uint32_t s) {
    // Composite subsets carry the global (join-output) factor; every
    // subset carries its least-trusted member's factor.
    double f = (s & (s - 1)) != 0 ? global_factor : 1.0;
    for (size_t i = 0; i < k; ++i) {
      if (s & (1u << i)) f = std::max(f, leaf_factor[i]);
    }
    return f;
  };

  auto subset_rows = [&](uint32_t s) {
    double rows = 1.0;
    for (size_t i = 0; i < k; ++i) {
      if (s & (1u << i)) {
        rows *= std::max(1.0, estimator.EstimateFilteredSize(aliases[i]));
      }
    }
    for (const auto& ef : edge_factors) {
      if ((ef.mask & s) == ef.mask) rows /= ef.denominator;
    }
    return std::max(rows, 1.0);
  };

  // Leaves.
  for (size_t i = 0; i < k; ++i) {
    uint32_t s = 1u << i;
    DpEntry& entry = dp[s];
    entry.rows = std::max(1.0, estimator.EstimateFilteredSize(aliases[i]));
    entry.bytes = std::max(1.0, estimator.EstimateFilteredBytes(aliases[i]));
    double raw_rows = view.RowCount(aliases[i]);
    double raw_bytes = view.TotalBytes(aliases[i]);
    const TableRef* ref = spec.FindRef(aliases[i]);
    entry.cost = EstimateScanCost(raw_bytes, raw_rows, cluster,
                                  ref != nullptr && ref->is_intermediate);
    entry.tree = JoinTree::Leaf(aliases[i]);
    entry.filtered =
        ref != nullptr &&
        (ref->filtered || !spec.PredicatesFor(aliases[i]).empty());
  }

  // DP over subset sizes.
  for (uint32_t s = 1; s <= full; ++s) {
    if ((s & (s - 1)) == 0) continue;  // Singletons done.
    DpEntry& entry = dp[s];
    double out_rows = subset_rows(s);
    // Enumerate splits; canonical (s1 < s2 covered by both orders since
    // build/probe roles differ).
    for (uint32_t s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
      uint32_t s2 = s & ~s1;
      if (dp[s1].tree == nullptr || dp[s2].tree == nullptr) continue;
      // Connected?
      std::set<std::string> left_set, right_set;
      dp[s1].tree->CollectAliases(&left_set);
      dp[s2].tree->CollectAliases(&right_set);
      auto keys_or = KeysBetween(spec, left_set, right_set);
      if (!keys_or.ok()) continue;
      const auto& keys = keys_or.value();

      const DpEntry& left = dp[s1];
      const DpEntry& right = dp[s2];
      double left_width = left.rows > 0 ? left.bytes / left.rows : 64.0;
      double right_width = right.rows > 0 ? right.bytes / right.rows : 64.0;
      double out_bytes = out_rows * (left_width + right_width);

      // Pessimistic-bound costing: widen each input by its subset factor
      // and the output by the full subset's. DpEntry rows/bytes stay the
      // expected values (they feed the decision log and downstream
      // estimates); only costs and eligibility gates see the widening.
      const double wl = widen(s1);
      const double wr = widen(s2);
      const double wo = widen(s);

      // Build side = left (s1); consider it as build only when it is the
      // smaller input (mirrors the executor convention).
      JoinCostInputs in;
      in.build_rows = left.rows * wl;
      in.build_bytes = left.bytes * wl;
      in.probe_rows = right.rows * wr;
      in.probe_bytes = right.bytes * wr;
      in.out_rows = out_rows * wo;
      in.out_bytes = out_bytes * wo;
      if (cluster.risk.spill_aware_costing) {
        in.memory_budget_bytes = cluster.memory.join_memory_budget_bytes;
      }

      double base_cost = left.cost + right.cost;
      // Hash join.
      {
        double cost = base_cost + EstimateJoinExecCost(JoinMethod::kHashShuffle,
                                                       in, cluster, 0.0);
        if (cost < entry.cost) {
          entry.cost = cost;
          entry.rows = out_rows;
          entry.bytes = out_bytes;
          entry.tree =
              JoinTree::Join(left.tree, right.tree, JoinMethod::kHashShuffle);
          entry.filtered = left.filtered || right.filtered;
        }
      }
      // Broadcast (build = s1, must be small — judged pessimistically, so
      // a side with a misestimation history loses its broadcast
      // eligibility before it can blow past the threshold at runtime).
      if (left.bytes * wl <=
              static_cast<double>(cluster.broadcast_threshold_bytes)) {
        double cost = base_cost + EstimateJoinExecCost(JoinMethod::kBroadcast,
                                                       in, cluster, 0.0);
        if (cost < entry.cost) {
          entry.cost = cost;
          entry.rows = out_rows;
          entry.bytes = out_bytes;
          entry.tree =
              JoinTree::Join(left.tree, right.tree, JoinMethod::kBroadcast);
          entry.filtered = left.filtered || right.filtered;
        }
      }
      // Indexed NLJ: inner (s2) must be a singleton base dataset with an
      // index; outer (s1) must be small and filtered. The inner's scan cost
      // is avoided, so subtract it from base cost.
      if (options.enable_inlj && (s2 & (s2 - 1)) == 0 &&
          left.bytes * wl <=
              static_cast<double>(cluster.broadcast_threshold_bytes)) {
        const std::string inner_alias = *right_set.begin();
        bool outer_filtered = left.filtered || (s1 & (s1 - 1)) != 0;
        if (InljApplicableForSets(spec, view.catalog(), keys, inner_alias,
                                  outer_filtered)) {
          double cost =
              left.cost +
              EstimateJoinExecCost(JoinMethod::kIndexNestedLoop, in, cluster,
                                   0.0);  // Inner scan already excluded.
          if (cost < entry.cost) {
            entry.cost = cost;
            entry.rows = out_rows;
            entry.bytes = out_bytes;
            entry.tree = JoinTree::Join(left.tree, right.tree,
                                        JoinMethod::kIndexNestedLoop);
            entry.filtered = true;
          }
        }
      }
    }
  }

  if (dp[full].tree == nullptr) {
    return Status::InvalidArgument(
        "DP found no connected plan (disconnected join graph?)");
  }
  if (est_rows != nullptr) *est_rows = dp[full].rows;
  if (est_cost != nullptr) *est_cost = dp[full].cost;
  return dp[full].tree;
}

Result<OptimizerRunResult> StaticCostBasedOptimizer::Run(
    const QuerySpec& query) {
  QuerySpec spec = query;
  spec.NormalizeJoins();
  DYNOPT_RETURN_IF_ERROR(spec.Validate());
  DYNOPT_RETURN_IF_ERROR(CheckContext());
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  TraceSpan plan_span("plan-dp", "opt");
  // Cross-query error memory (off by default): past runs' q-errors widen
  // this plan's confidence intervals, and this run's root q-error feeds
  // the store for the next one.
  ErrorStatsStore* err_store = EngineErrorStats(engine_);
  const SelectivityRisk risk =
      PriorRisk(spec, err_store, kMaxCiWidening);
  double est_rows = -1;
  double est_cost = -1;
  DYNOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const JoinTree> tree,
      PlanWithDp(spec, view, engine_->cluster(), options_, &est_rows,
                 &est_cost, err_store != nullptr ? &risk : nullptr));
  plan_span.End();
  PlanDecision decision;
  decision.point = "initial-plan";
  decision.estimated_rows = est_rows;
  decision.estimated_cost = est_cost;
  StampPrior(err_store, risk, &decision);
  auto result = ExecuteTreeAsSingleJob(engine_, spec, std::move(tree), name(),
                                       std::move(decision), ctx_);
  if (result.ok()) {
    // The plan is the profile's one decision.
    RecordWholePlanError(err_store, spec, result->profile->decisions, 0);
  }
  return result;
}

}  // namespace dynopt
