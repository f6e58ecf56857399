#ifndef DYNOPT_OPT_INGRES_OPTIMIZER_H_
#define DYNOPT_OPT_INGRES_OPTIMIZER_H_

#include <string>

#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"

namespace dynopt {

/// The paper's INGRES-like baseline [33]: the same decomposition loop as
/// the dynamic optimizer — every dataset with local predicates becomes a
/// single-variable subquery, joins run one at a time with intermediate
/// materialization — but the choice of the next subquery is based *only on
/// dataset cardinalities*: no distinct-count sketches or histograms are
/// collected or consulted, so the formula-(1) result estimation degrades to
/// a size-only proxy and the planner often forms a less efficient tree.
/// Decomposition materializes every intermediate, so the dynamic
/// optimizer's checkpoints and resume work unchanged here.
class IngresLikeOptimizer : public DynamicOptimizer {
 public:
  explicit IngresLikeOptimizer(Engine* engine,
                               const PlannerOptions& options = PlannerOptions());

  std::string name() const override { return "ingres-like"; }
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_INGRES_OPTIMIZER_H_
