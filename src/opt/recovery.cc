#include "opt/recovery.h"

#include <string>

#include "common/query_context.h"
#include "storage/serde.h"

namespace dynopt {

Result<OptimizerRunResult> RunWithRecovery(Optimizer* optimizer,
                                           Engine* engine,
                                           const QuerySpec& query,
                                           const RecoveryPolicy& policy,
                                           RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport* r = report != nullptr ? report : &local;
  *r = RecoveryReport();

  FaultInjector* injector = engine->fault_injector();
  // aborted_work_seconds is cumulative over the injector's lifetime;
  // deltas attribute waste to this query's failed attempts only.
  double aborted_mark =
      injector != nullptr ? injector->aborted_work_seconds() : 0.0;

  Status last = Status::OK();
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    const bool resume = attempt > 0 && optimizer->CanResume();
    if (attempt > 0) {
      if (resume) {
        ++r->resumes;
      } else {
        ++r->restarts;
      }
    }
    auto result = resume ? optimizer->ResumeFromLastCheckpoint()
                         : optimizer->Run(query);
    if (result.ok()) {
      r->total_paid_seconds =
          result.value().metrics.simulated_seconds + r->wasted_seconds;
      return result;
    }
    last = result.status();
    if (injector != nullptr) {
      const double now = injector->aborted_work_seconds();
      r->wasted_seconds += now - aborted_mark;
      aborted_mark = now;
    }
    // kCancelled and kResourceExhausted are terminal by design: a
    // cancelled/over-deadline/rejected query must not burn more attempts.
    if (!last.retryable()) break;
  }

  // The query is not going to finish; reclaim whatever intermediates the
  // attempts left behind (tables, their statistics and sketches) so a
  // failed query leaks nothing, and sweep any spill or temp files still
  // sitting in the spill directory (a cancel can land between a
  // partition's write and its read-back). With a context attached,
  // optimizers prefix their temp tables "q<id>_" (TempTablePrefix), so the
  // sweep is scoped to THIS query — under concurrent traffic an unscoped
  // drop would destroy other in-flight queries' intermediates. Ungoverned
  // runs keep the historical drop-everything behavior (one query at a time
  // by construction), and their file sweep stays within this process's
  // files.
  for (const std::string& name : engine->catalog().DropTempTablesWithPrefix(
           TempTablePrefix(optimizer->context(), ""))) {
    engine->DropTempTable(name);
  }
  const std::string spill_prefix =
      optimizer->context() != nullptr
          ? optimizer->context()->SpillFilePrefix()
          : ProcessSpillPrefix();
  (void)RemoveFilesWithPrefix(engine->cluster().spill_directory, spill_prefix);
  r->total_paid_seconds = r->wasted_seconds;
  return last;
}

}  // namespace dynopt
