#include "opt/ingres_optimizer.h"

namespace dynopt {

namespace {

DynamicOptimizerOptions MakeIngresOptions(const PlannerOptions& base) {
  DynamicOptimizerOptions options;
  options.planner = base;
  options.planner.estimation.cardinality_only = true;
  // INGRES decomposes every single-variable query, simple or not.
  options.pushdown_simple_predicates = true;
  // Only exact cardinalities of intermediates are fed back; no sketches.
  options.collect_online_stats = false;
  return options;
}

}  // namespace

IngresLikeOptimizer::IngresLikeOptimizer(Engine* engine,
                                         const PlannerOptions& options)
    : DynamicOptimizer(engine, MakeIngresOptions(options)) {}

}  // namespace dynopt
