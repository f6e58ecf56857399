#ifndef DYNOPT_OPT_STRATEGIES_H_
#define DYNOPT_OPT_STRATEGIES_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "exec/engine.h"
#include "opt/join_tree.h"
#include "opt/optimizer.h"
#include "opt/planner.h"

namespace dynopt {

/// The strategy named `name` — "dynamic", "best-order", "cost-based",
/// "pilot-run", "ingres-like", "worst-order" or "sketch-dynamic" — over
/// `engine`, planning with `planner`; best-order executes
/// `best_order_hint` and ignores `planner`. An unknown name is
/// kInvalidArgument.
Result<std::unique_ptr<Optimizer>> MakeOptimizer(
    Engine* engine, const std::string& name, const PlannerOptions& planner,
    std::shared_ptr<const JoinTree> best_order_hint);

}  // namespace dynopt

#endif  // DYNOPT_OPT_STRATEGIES_H_
