#ifndef DYNOPT_OPT_DYNAMIC_OPTIMIZER_H_
#define DYNOPT_OPT_DYNAMIC_OPTIMIZER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "opt/join_tree.h"
#include "opt/optimizer.h"
#include "opt/planner.h"

namespace dynopt {

/// With risk.error_feedback on, a query whose worst observed q-error
/// exceeds this earns an extra re-optimization checkpoint where the plan
/// would otherwise go static.
inline constexpr double kQErrorReoptThreshold = 4.0;
/// Cap on those error-triggered extra rounds per query (each one costs a
/// materialization, so unbounded triggering could thrash).
inline constexpr int kMaxExtraReopts = 2;

/// Knobs for the runtime dynamic optimizer. The booleans exist so the
/// Figure-6 overhead experiments can ablate individual stages.
struct DynamicOptimizerOptions {
  PlannerOptions planner;
  /// Collect sketches on materialized intermediates; when false only exact
  /// row counts are fed back.
  bool collect_online_stats = true;
  /// Build join-key Bloom + Fast-AGMS sketches on every materialized
  /// intermediate (registered with the engine's SketchManager and priced
  /// like online statistics), and let the planner answer join
  /// cardinalities from them where both sides carry one, falling back to
  /// formula (1) otherwise. Decisions made from sketches are tagged
  /// est_src=sketch in the log. Off by default: metering stays
  /// byte-identical.
  bool use_sketches = false;
  /// Also push down single simple predicates instead of estimating them
  /// from the histogram — the INGRES-style full decomposition.
  bool pushdown_simple_predicates = false;
  /// Figure-6 (right) ablation: run only the predicate push-down stage,
  /// then plan the remaining query statically (DP over the refined
  /// statistics) and execute it as one job with no further
  /// re-optimization points.
  bool stop_after_pushdown = false;
  /// Failure-injection hook for the fault-tolerance tests: abort the run
  /// (with a retryable Transient error and a recoverable checkpoint) after
  /// this many completed stages. Negative disables injection.
  int inject_failure_after_stages = -1;
};

/// Serializable progress of a dynamic-optimization run — the
/// fault-tolerance mechanism the paper's Section 8 proposes: since every
/// re-optimization point already materializes its intermediate result,
/// those temp tables double as checkpoints. This records which stages
/// completed, the rewritten remaining query and the accumulated metrics;
/// Resume() picks up a failed long-running query from here instead of
/// starting over.
struct DynamicCheckpoint {
  QuerySpec spec;  ///< Remaining query, rewritten around intermediates.
  std::map<std::string, std::shared_ptr<const JoinTree>> subtrees;
  std::vector<std::string> temp_tables;  ///< Live checkpoint data.
  int join_counter = 0;
  /// Index into the original alias order up to which push-down completed.
  size_t pushdown_next_index = 0;
  bool pushdown_done = false;
  int completed_stages = 0;
  ExecMetrics metrics;  ///< Work already paid for (not redone on resume).
  /// Work paid before the run's first stage (sketch-dynamic's base
  /// sketches); added after every stage's work when the run finishes.
  ExecMetrics prepaid;
  std::string trace;
  /// Decisions logged so far (each recorded after its stage materializes,
  /// so a resumed run never duplicates entries).
  DecisionLog decisions;
  /// SubtreeKey -> actual materialized rows of completed stages.
  std::map<std::string, uint64_t> subtree_actual_rows;
  /// Extra re-optimization checkpoints already spent on this query by the
  /// error feedback loop (kMaxExtraReopts bounds it). Lives in the
  /// checkpoint so a resumed run neither forgets a spent trigger (which
  /// would re-fire it) nor re-counts one.
  int extra_reopts = 0;
  /// Original alias -> catalog table name, captured before push-down
  /// rewrites aliases onto temp tables. Cross-query error-store keys must
  /// name base tables (temp names are meaningless across queries).
  std::map<std::string, std::string> base_tables;
};

/// The paper's contribution (Algorithm 1): INGRES-style runtime dynamic
/// optimization adapted to a shared-nothing engine.
///
///   1. Every dataset with multiple or complex (UDF/parameterized) local
///      predicates is executed first as a single-variable job; the filtered
///      result is materialized with fresh statistics.
///   2. While more than two joins remain: the Planner picks the single join
///      with the least estimated result cardinality (+ best algorithm),
///      that join runs as its own job, its result is materialized with
///      online statistics, and the remaining query is reconstructed around
///      the intermediate.
///   3. The final (at most two) joins are ordered with the accumulated
///      statistics and executed as one job whose output is returned.
///
/// IngresLikeOptimizer and SketchDynamicOptimizer are this loop under
/// other options; as subclasses they keep its checkpoints and resume.
/// Profiles, trace spans and the archive name the run by name().
class DynamicOptimizer : public Optimizer {
 public:
  explicit DynamicOptimizer(
      Engine* engine,
      const DynamicOptimizerOptions& options = DynamicOptimizerOptions());

  std::string name() const override { return "dynamic"; }
  Result<OptimizerRunResult> Run(const QuerySpec& query) override;

  /// Continues a run that failed mid-query from its last checkpoint; the
  /// checkpoint's temp tables must still exist in the catalog. Completed
  /// stages are not re-executed (their metrics carry over).
  Result<OptimizerRunResult> Resume(DynamicCheckpoint checkpoint);

  /// A checkpoint exists whenever the last Run/Resume failed with a
  /// retryable error: every stage boundary is a materialization point, so
  /// the run auto-checkpoints the completed prefix before surfacing the
  /// failure (a failure before the first boundary checkpoints the initial
  /// state, which degenerates to a restart — still via the same path).
  bool CanResume() const override { return last_checkpoint_.has_value(); }
  Result<OptimizerRunResult> ResumeFromLastCheckpoint() override;

  /// Checkpoint cut when the most recent Run/Resume failed mid-query;
  /// nullptr when the last run succeeded (or never ran).
  const DynamicCheckpoint* last_checkpoint() const {
    return last_checkpoint_.has_value() ? &*last_checkpoint_ : nullptr;
  }

 protected:
  /// Run() for a subclass that paid work before the run starts: `prepaid`
  /// is counted in the result's metrics (see QueryRun::Finish).
  Result<OptimizerRunResult> Run(const QuerySpec& query,
                                 const ExecMetrics& prepaid);

  Engine* const engine_;

 private:
  Result<OptimizerRunResult> RunFromState(DynamicCheckpoint state);

  DynamicOptimizerOptions options_;
  std::optional<DynamicCheckpoint> last_checkpoint_;
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_DYNAMIC_OPTIMIZER_H_
