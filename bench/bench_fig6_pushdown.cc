// Reproduces Figure 6 (right): the overhead of pushing down and executing
// multiple/complex predicates, vs a baseline that executes the same plan
// with perfect statistics available from the beginning.
//
// Baseline: best-order (the dynamic plan, one pipelined job, no
// materialization). Predicate push-down: the dynamic optimizer with only
// its push-down stage enabled; the remaining query is planned statically
// from the refined statistics and runs as one job.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <mutex>

#include "bench/harness.h"
#include "opt/dynamic_optimizer.h"

namespace dynopt {
namespace bench {
namespace {

std::map<std::string, double>& BaselineSeconds() {
  static auto* map = new std::map<std::string, double>();
  return *map;
}
std::mutex g_mu;

void RunCase(benchmark::State& state, const std::string& query, int paper_sf,
             bool pushdown) {
  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/false);
  for (auto _ : state) {
    double total = 0;
    if (!pushdown) {
      auto result = RunStrategy(engine, paper_sf, "best-order", query, false);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      total = result->metrics.simulated_seconds;
      std::lock_guard<std::mutex> lock(g_mu);
      BaselineSeconds()[query + std::to_string(paper_sf)] = total;
    } else {
      auto spec = GetQuery(engine, query);
      if (!spec.ok()) {
        state.SkipWithError(spec.status().ToString().c_str());
        return;
      }
      DynamicOptimizerOptions options;
      options.stop_after_pushdown = true;
      DynamicOptimizer optimizer(engine, options);
      auto result = optimizer.Run(spec.value());
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      total = result->metrics.simulated_seconds;
      AddRecord(MakeRecord("Figure 6 (right)", query, paper_sf,
                           "predicate-push-down", *result));
    }
    state.SetIterationTime(total);
  }
}

void RegisterAll() {
  for (int sf : {100, 1000}) {
    for (const char* query : kQueries) {
      for (bool pushdown : {false, true}) {
        std::string name = std::string("fig6_pushdown/") + query + "/sf" +
                           std::to_string(sf) + "/" +
                           (pushdown ? "push-down" : "baseline");
        benchmark::RegisterBenchmark(
            name.c_str(), [query = std::string(query), sf,
                           pushdown](benchmark::State& state) {
              RunCase(state, query, sf, pushdown);
            })
            ->UseManualTime()
            ->Unit(benchmark::kSecond)
            ->Iterations(1);
      }
    }
  }
}

void PrintComparison() {
  std::printf(
      "\n=== Figure 6 (right): predicate push-down vs baseline "
      "(simulated s) ===\n");
  std::printf("%-6s %6s %10s %12s %10s\n", "query", "sf", "baseline",
              "push-down", "overhead%");
  for (const auto& r : Records()) {
    if (r.figure != "Figure 6 (right)") continue;
    double baseline = BaselineSeconds()[r.query + std::to_string(r.paper_sf)];
    const double sim = r.metrics.simulated_seconds;
    std::printf("%-6s %6d %10.2f %12.2f %9.1f%%\n", r.query.c_str(),
                r.paper_sf, baseline, sim,
                baseline > 0 ? 100.0 * (sim - baseline) / baseline : 0.0);
  }
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) {
  dynopt::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dynopt::bench::PrintComparison();
  return 0;
}
