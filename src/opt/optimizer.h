#ifndef DYNOPT_OPT_OPTIMIZER_H_
#define DYNOPT_OPT_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/metrics.h"
#include "opt/decision_log.h"
#include "opt/join_tree.h"
#include "plan/query_spec.h"

namespace dynopt {

/// Result of optimizing + executing one query end to end.
struct OptimizerRunResult {
  std::vector<std::string> columns;  ///< Qualified projection names.
  std::vector<Row> rows;             ///< Gathered final result.
  ExecMetrics metrics;               ///< Totals incl. simulated seconds.
  double wall_seconds = 0;           ///< Real elapsed time.
  /// Effective join order/methods (the paper's plan figures); null for
  /// single-table queries.
  std::shared_ptr<const JoinTree> join_tree;
  /// Human-readable stage-by-stage narrative.
  std::string plan_trace;
  /// Full observability record: decision log with estimated-vs-actual
  /// cardinalities, per-subtree actual rows, and (when tracing is enabled)
  /// the drained span timeline. Always non-null after a successful Run();
  /// rendered by ExplainAnalyze() and exportable via WriteChromeTrace().
  std::shared_ptr<QueryProfile> profile;
};

/// Common interface of the seven optimization strategies: the six the
/// paper's evaluation compares, plus sketch-dynamic. Run() owns the full
/// lifecycle: plan (possibly interleaved with execution for the dynamic
/// strategies), execute, clean up temp datasets, and report metrics.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;
  virtual Result<OptimizerRunResult> Run(const QuerySpec& query) = 0;

  /// True when this optimizer can continue a failed run from mid-query
  /// state instead of restarting. Only the checkpointing strategies
  /// (dynamic and its subclasses ingres-like and sketch-dynamic) return
  /// true: their materialized intermediates double as checkpoints. The
  /// static strategies and pilot-run have nothing to resume from —
  /// RunWithRecovery (opt/recovery.h) degrades them to whole-query
  /// restart.
  virtual bool CanResume() const { return false; }

  /// Continues the most recent failed Run() from its last checkpoint.
  /// Precondition: CanResume() and the last Run/Resume failed with a
  /// retryable error that left a checkpoint behind.
  virtual Result<OptimizerRunResult> ResumeFromLastCheckpoint() {
    return Status::Unimplemented(name() + " cannot resume from a checkpoint");
  }

  /// Attaches a per-query context: every driver loop checks its
  /// cancellation token/deadline at stage and re-optimization boundaries,
  /// and executors account memory against its tracker. Null (the default)
  /// runs ungoverned. The context must outlive Run()/Resume().
  void set_context(QueryContext* ctx) { ctx_ = ctx; }
  QueryContext* context() const { return ctx_; }

 protected:
  /// Cooperative cancellation check for driver loops; OK without a context.
  Status CheckContext() {
    return ctx_ != nullptr ? ctx_->CheckAlive() : Status::OK();
  }

  QueryContext* ctx_ = nullptr;
};

/// Catalog temp-name prefix for the materialized intermediates of `kind`
/// a query run under `ctx` creates: "q<id>_<kind>" with a context, so
/// concurrent queries' temp tables are distinguishable and a
/// terminal-failure sweep (RunWithRecovery, which passes an empty kind)
/// reclaims only THIS query's leftovers instead of destroying other
/// in-flight queries' intermediates. Plain `kind` ungoverned — single-query
/// runs keep their legacy names.
std::string TempTablePrefix(const QueryContext* ctx, const std::string& kind);

/// Sorts rows lexicographically — canonical form for comparing result sets
/// across optimizers in tests.
void SortRows(std::vector<Row>* rows);

}  // namespace dynopt

#endif  // DYNOPT_OPT_OPTIMIZER_H_
