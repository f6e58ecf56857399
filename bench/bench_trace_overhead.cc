// Tracing overhead benchmark: runs TPC-H Q9 under the dynamic optimizer
// with tracing disabled (the default) and enabled, and checks the two
// invariants the observability layer promises:
//
//   1. Metering identity — tracing never touches the simulated cost model,
//      so every deterministic ExecMetrics field is byte-for-byte identical
//      with tracing on and off (MeteringDiff under DYNOPT_CHECK, not a
//      soft comparison).
//   2. Low overhead — the best-of-N wall-clock with tracing enabled stays
//      within DYNOPT_TRACE_OVERHEAD_PCT percent (default 5) of the
//      disabled baseline.
//
// Outputs: BENCH_trace.json (timings + overhead), a Chrome-trace JSON of
// the final traced run (loadable in Perfetto / chrome://tracing), an
// EXPLAIN ANALYZE dump and the engine's metrics-registry snapshot.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/tracer.h"
#include "opt/dynamic_optimizer.h"
#include "opt/explain.h"

namespace dynopt {
namespace bench {
namespace {

Result<OptimizerRunResult> RunQ9(Engine* engine) {
  DYNOPT_ASSIGN_OR_RETURN(QuerySpec spec, GetQuery(engine, "q9"));
  DynamicOptimizer optimizer(engine);
  return optimizer.Run(spec);
}

int Main(int argc, char** argv) {
  int paper_sf = 10;
  int reps = 5;
  std::string out_path = "BENCH_trace.json";
  std::string trace_path = "trace_q9.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sf") == 0 && i + 1 < argc) {
      paper_sf = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sf <paper_sf>] [--reps <n>] [--out <path>] "
                   "[--trace-out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  double overhead_limit_pct = 5.0;
  if (const char* env = std::getenv("DYNOPT_TRACE_OVERHEAD_PCT")) {
    overhead_limit_pct = std::atof(env);
  }

  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/false);
  std::printf("=== bench_trace_overhead: q9 dynamic, paper_sf=%d, reps=%d, "
              "limit=%.1f%% ===\n",
              paper_sf, reps, overhead_limit_pct);

  // Warm-up (loads/caches the engine tables outside the timed runs).
  DYNOPT_CHECK(Tracer::Global().enabled() == false);
  {
    auto warm = RunQ9(engine);
    DYNOPT_CHECK(warm.ok());
  }

  // Baseline: tracing disabled (the default state).
  double off_best_wall = 0;
  ExecMetrics off_metrics;
  for (int r = 0; r < reps; ++r) {
    auto result = RunQ9(engine);
    DYNOPT_CHECK(result.ok());
    if (r == 0) {
      off_best_wall = result->wall_seconds;
      off_metrics = result->metrics;
    } else {
      off_best_wall = std::min(off_best_wall, result->wall_seconds);
      // The simulation itself must be deterministic run-over-run, or the
      // tracing-identity check below would be meaningless.
      DYNOPT_CHECK(MeteringDiff(result->metrics, off_metrics).empty());
    }
    // Disabled tracing must leave nothing behind to drain.
    DYNOPT_CHECK(result->profile != nullptr);
    DYNOPT_CHECK(result->profile->trace.empty());
  }

  // Traced runs.
  Tracer::Global().Enable();
  double on_best_wall = 0;
  std::shared_ptr<QueryProfile> traced_profile;
  OptimizerRunResult traced_run;
  for (int r = 0; r < reps; ++r) {
    auto result = RunQ9(engine);
    DYNOPT_CHECK(result.ok());
    on_best_wall = r == 0 ? result->wall_seconds
                          : std::min(on_best_wall, result->wall_seconds);
    // Invariant 1: tracing changes no metered quantity.
    const std::string drift = MeteringDiff(off_metrics, result->metrics);
    if (!drift.empty()) {
      std::fprintf(stderr, "metering drift (off != on):\n%s", drift.c_str());
    }
    DYNOPT_CHECK(drift.empty());
    DYNOPT_CHECK(result->profile != nullptr);
    DYNOPT_CHECK(!result->profile->trace.empty());
    traced_profile = result->profile;
    traced_run = std::move(result).value();
  }
  Tracer::Global().Disable();

  std::printf("metering identical on/off: %s\n",
              off_metrics.ToString().c_str());

  // Invariant 2: wall-clock overhead within the budget.
  const double overhead_pct =
      off_best_wall > 0
          ? (on_best_wall - off_best_wall) / off_best_wall * 100.0
          : 0.0;
  std::printf("wall best-of-%d: off=%.6fs on=%.6fs overhead=%.2f%%\n", reps,
              off_best_wall, on_best_wall, overhead_pct);
  DYNOPT_CHECK(overhead_pct <= overhead_limit_pct);

  // Export the Chrome trace of the final traced run.
  Status wrote = WriteChromeTrace(trace_path, traced_profile->trace);
  DYNOPT_CHECK(wrote.ok());
  std::printf("wrote %s (%zu spans)\n", trace_path.c_str(),
              traced_profile->trace.size());

  // EXPLAIN ANALYZE of the traced run, for eyeballing est-vs-actual.
  auto spec = GetQuery(engine, "q9");
  DYNOPT_CHECK(spec.ok());
  auto analyzed = ExplainAnalyze(engine, spec.value(), traced_run);
  DYNOPT_CHECK(analyzed.ok());
  std::printf("\n%s\n", analyzed->c_str());

  // Engine counter/histogram snapshot accumulated across all runs.
  std::printf("-- metrics registry --\n%s",
              engine->metrics_registry().TextSnapshot().c_str());

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"trace_overhead\",\n"
       << "  \"query\": \"q9\",\n"
       << "  \"optimizer\": \"dynamic\",\n"
       << "  \"paper_sf\": " << paper_sf << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"wall_seconds_off\": " << off_best_wall << ",\n"
       << "  \"wall_seconds_on\": " << on_best_wall << ",\n"
       << "  \"overhead_pct\": " << overhead_pct << ",\n"
       << "  \"overhead_limit_pct\": " << overhead_limit_pct << ",\n"
       << "  \"trace_spans\": " << traced_profile->trace.size() << ",\n"
       << "  \"num_decisions\": " << traced_run.metrics.num_decisions << ",\n"
       << "  \"max_q_error\": " << traced_run.metrics.max_q_error << ",\n"
       << "  \"metering_identical\": true\n"
       << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::bench::Main(argc, argv); }
