#include "opt/degrade.h"

#include <algorithm>

#include "common/metrics_registry.h"
#include "opt/cost_model.h"
#include "opt/static_optimizer.h"
#include "opt/stats_view.h"

namespace dynopt {

uint64_t EstimateQueryReservationBytes(const QuerySpec& query, Engine* engine,
                                       uint64_t min_bytes,
                                       const EstimationOptions& options) {
  StatsView view(&query, &engine->stats(), &engine->catalog());
  CardinalityEstimator estimator(&view, options);
  double bytes = 0;
  for (const auto& ref : query.tables) {
    // Route per-input sizes through the spill-aware resident-set model:
    // with a per-node join budget, a build side larger than budget x nodes
    // never pins more than that — the overflow lives in spill files the
    // admission controller should not reserve RAM for. With no budget
    // (default) this is the identity, so reservations are unchanged.
    bytes += EstimateResidentBytes(
        std::max(0.0, estimator.EstimateFilteredBytes(ref.alias)),
        engine->cluster());
  }
  return std::max(min_bytes, static_cast<uint64_t>(bytes));
}

std::unique_ptr<Optimizer> ApplyStrategyDowngrade(
    std::unique_ptr<Optimizer> planned, Engine* engine, QueryContext* ctx) {
  if (planned == nullptr || ctx == nullptr || !ctx->strategy_downgraded) {
    return planned;
  }
  engine->metrics_registry().counter("opt.strategy_downgrades")->Increment();
  auto fallback = std::make_unique<StaticCostBasedOptimizer>(engine);
  fallback->set_context(ctx);
  return fallback;
}

}  // namespace dynopt
