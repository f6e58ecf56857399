#ifndef DYNOPT_OPT_PILOT_RUN_OPTIMIZER_H_
#define DYNOPT_OPT_PILOT_RUN_OPTIMIZER_H_

#include <string>

#include "exec/engine.h"
#include "opt/optimizer.h"
#include "opt/planner.h"
#include "stats/column_stats.h"

namespace dynopt {

struct PilotRunOptions {
  PlannerOptions planner;
  /// LIMIT k of each pilot run: sampling stops once k tuples have been
  /// output (the technique of [23] as described in Section 7 of the paper).
  size_t sample_limit = 1000;
};

/// The pilot-run baseline [23]: before optimizing, a select-project "pilot
/// run" (local predicates included, LIMIT k) executes over a sample of
/// every base dataset; sample statistics — selectivities, scaled distinct
/// counts, histograms — seed a complete initial plan (same DP as the
/// cost-based optimizer). Execution then proceeds to one re-optimization
/// point after the first join, where online statistics adjust the rest of
/// the plan.
///
/// Its weakness (which the paper exploits): distinct counts scaled up from
/// a small skewed sample are unreliable for non-pk/fk joins, so the initial
/// join order can be wrong; and indexes are unusable on intermediates, so
/// INLJ opportunities vanish after the first join.
class PilotRunOptimizer : public Optimizer {
 public:
  explicit PilotRunOptimizer(Engine* engine,
                             const PilotRunOptions& options = PilotRunOptions());

  std::string name() const override { return "pilot-run"; }
  Result<OptimizerRunResult> Run(const QuerySpec& query) override;

 private:
  Engine* engine_;
  PilotRunOptions options_;
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_PILOT_RUN_OPTIMIZER_H_
