#include "opt/strategies.h"

#include <utility>

#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"

namespace dynopt {

Result<std::unique_ptr<Optimizer>> MakeOptimizer(
    Engine* engine, const std::string& name, const PlannerOptions& planner,
    std::shared_ptr<const JoinTree> best_order_hint) {
  std::unique_ptr<Optimizer> optimizer;
  if (name == "dynamic") {
    DynamicOptimizerOptions options;
    options.planner = planner;
    optimizer = std::make_unique<DynamicOptimizer>(engine, options);
  } else if (name == "best-order") {
    optimizer = std::make_unique<BestOrderOptimizer>(
        engine, std::move(best_order_hint));
  } else if (name == "cost-based") {
    optimizer = std::make_unique<StaticCostBasedOptimizer>(engine, planner);
  } else if (name == "pilot-run") {
    PilotRunOptions options;
    options.planner = planner;
    optimizer = std::make_unique<PilotRunOptimizer>(engine, options);
  } else if (name == "ingres-like") {
    optimizer = std::make_unique<IngresLikeOptimizer>(engine, planner);
  } else if (name == "worst-order") {
    optimizer = std::make_unique<WorstOrderOptimizer>(engine, planner);
  } else if (name == "sketch-dynamic") {
    optimizer = std::make_unique<SketchDynamicOptimizer>(engine, planner);
  } else {
    return Status::InvalidArgument("unknown optimization strategy '" + name +
                                   "'");
  }
  return optimizer;
}

}  // namespace dynopt
