#ifndef DYNOPT_OPT_QUERY_RUN_H_
#define DYNOPT_OPT_QUERY_RUN_H_

#include <chrono>
#include <memory>
#include <string>

#include "common/tracer.h"
#include "exec/metrics.h"
#include "opt/decision_log.h"
#include "opt/optimizer.h"
#include "opt/profile_archive.h"
#include "plan/query_spec.h"

namespace dynopt {

class Engine;
class QueryContext;

/// Brackets one strategy run. The constructor starts the wall clock,
/// registers the query with the introspection plane (IntrospectionRun) and
/// opens the "query:<optimizer>" span; Finish() is the one epilogue every
/// strategy's Run() ends with.
class QueryRun {
 public:
  QueryRun(Engine* engine, const QuerySpec& spec, const std::string& optimizer,
           QueryContext* ctx);

  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  /// Completes `result`, whose rows and executed work are final:
  ///  1. adds `prepaid` — work the strategy paid before the work in
  ///     `result` (pilot-run's samples on its one-job path, sketch-dynamic's
  ///     base sketches) — after everything executed, so the simulated-time
  ///     sum keeps its order, and sets rows_out to the returned row count;
  ///  2. folds `profile`'s decision log into max_q_error / num_decisions
  ///     and exports the q-error telemetry and the run's summed counters
  ///     (ExportQueryCounters) to the engine's registry;
  ///  3. ends the query span with the simulated seconds and drains the
  ///     tracer into `profile`;
  ///  4. attaches `profile`, stamps wall_seconds and archives the run.
  /// The archive, sys.queries and the trace all read the metrics after
  /// step 1, so no view of the run can disagree with the result.
  void Finish(std::shared_ptr<QueryProfile> profile,
              const ExecMetrics& prepaid, OptimizerRunResult* result);

 private:
  Engine* engine_;
  const std::chrono::steady_clock::time_point start_;
  IntrospectionRun introspection_;
  TraceSpan span_;
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_QUERY_RUN_H_
