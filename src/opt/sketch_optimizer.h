#ifndef DYNOPT_OPT_SKETCH_OPTIMIZER_H_
#define DYNOPT_OPT_SKETCH_OPTIMIZER_H_

#include <string>

#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"

namespace dynopt {

/// The seventh strategy: the dynamic optimizer's decomposition loop, but
/// with join cardinalities answered from Fast-AGMS join-size sketches
/// (predicate transfer's statistics layer) instead of the formula-(1)
/// ndv quotient wherever a sketch pair is available.
///
/// Base-table join-key columns are sketched once per engine at the first
/// Run() (priced like online statistics collection and amortized across
/// queries, mirroring AsterixDB's load-time statistics); every materialized
/// intermediate re-sketches its future join keys at the materialization
/// checkpoint, so each re-optimization round plans from sketch estimates of
/// the *remaining* joins. Decisions answered from sketches carry
/// est_src=sketch in the decision log; formula-(1) fallbacks under this
/// strategy carry est_src=stats.
class SketchDynamicOptimizer : public DynamicOptimizer {
 public:
  explicit SketchDynamicOptimizer(
      Engine* engine, const PlannerOptions& options = PlannerOptions());

  std::string name() const override { return "sketch-dynamic"; }
  /// Sketches the query's base join keys first, then runs the loop with
  /// that work prepaid. Resume needs no such step: base sketches survive a
  /// failure in the engine, so a resumed run replans identically.
  Result<OptimizerRunResult> Run(const QuerySpec& query) override;

 private:
  /// Builds Bloom + Fast-AGMS sketches over every base-table join-key
  /// column of `query` that is not yet registered, charging
  /// stats_seconds_per_value per (row, column) divided across the table's
  /// partitions into `metrics`. Columns already sketched (by a previous
  /// query on this engine) are free.
  Status EnsureBaseSketches(const QuerySpec& query, ExecMetrics* metrics);
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_SKETCH_OPTIMIZER_H_
