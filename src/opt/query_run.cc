#include "opt/query_run.h"

#include <cmath>

#include "common/metrics_registry.h"
#include "exec/engine.h"

namespace dynopt {

QueryRun::QueryRun(Engine* engine, const QuerySpec& spec,
                   const std::string& optimizer, QueryContext* ctx)
    : engine_(engine),
      start_(std::chrono::steady_clock::now()),
      introspection_(engine, spec, optimizer, ctx),
      span_("query:" + optimizer, "query") {}

void QueryRun::Finish(std::shared_ptr<QueryProfile> profile,
                      const ExecMetrics& prepaid, OptimizerRunResult* result) {
  ExecMetrics& metrics = result->metrics;
  metrics.Add(prepaid);
  metrics.rows_out = result->rows.size();
  const std::vector<PlanDecision>& decisions = profile->decisions.decisions();
  metrics.max_q_error = profile->decisions.MaxQError();
  metrics.num_decisions = decisions.size();
  // Engine-wide estimation-quality telemetry: a log2 histogram of rounded
  // per-decision q-errors (bucket 1 = spot-on, each doubling one bucket
  // up) so operators can watch the error distribution across queries, not
  // just the per-query max that survives in ExecMetrics.
  MetricsRegistry& registry = engine_->metrics_registry();
  Histogram* q_hist = registry.histogram("opt.q_error");
  uint64_t with_actuals = 0;
  for (const PlanDecision& d : decisions) {
    const double q = d.QError();
    if (q >= 1.0) {
      q_hist->Record(static_cast<uint64_t>(std::llround(q)));
      ++with_actuals;
    }
  }
  registry.counter("opt.decisions_with_actuals")->Increment(with_actuals);
  ExportQueryCounters(metrics, &registry);
  span_.SetSimSeconds(metrics.simulated_seconds);
  span_.AddArg("max_q_error", metrics.max_q_error);
  span_.End();
  if (Tracer::Global().enabled()) {
    profile->trace = Tracer::Global().Drain();
  }
  result->profile = std::move(profile);
  result->wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  introspection_.Complete(result);
}

}  // namespace dynopt
