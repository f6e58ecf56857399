// Reproduces Figure 6 (left): the overhead imposed by the multiple
// re-optimization points and the online statistics collection, for
// Q17/Q50/Q8/Q9 at paper scale factors 100 and 1000.
//
// Methodology mirrors the paper's: one full dynamic run decomposes its
// simulated time into
//   - "Statistics Upfront": execution work that would remain if the
//     optimal plan were known from the beginning,
//   - "Re-Optimization": materializing + re-reading intermediates plus the
//     fixed per-reopt coordination cost,
//   - "Online Stats": feeding the sketches on intermediate results.
// The benchmark asserts the paper's headline: overhead stays a modest
// fraction of execution (printed as a percentage).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/harness.h"

namespace dynopt {
namespace bench {
namespace {

void RunCase(benchmark::State& state, const std::string& query,
             int paper_sf) {
  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/false);
  for (auto _ : state) {
    auto result = RunStrategy(engine, paper_sf, "dynamic", query,
                              /*enable_inlj=*/false);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    const double total = result->metrics.simulated_seconds;
    const double reopt = result->metrics.reopt_seconds;
    const double stats = result->metrics.stats_seconds;
    state.SetIterationTime(total);
    state.counters["base_exec_s"] = total - reopt - stats;
    state.counters["reopt_s"] = reopt;
    state.counters["online_stats_s"] = stats;
    state.counters["reopt_pct"] = 100.0 * reopt / total;
    state.counters["stats_pct"] = 100.0 * stats / total;
    AddRecord(
        MakeRecord("Figure 6 (left)", query, paper_sf, "dynamic", *result));
  }
}

void RegisterAll() {
  for (int sf : {100, 1000}) {
    for (const char* query : kQueries) {
      std::string name =
          std::string("fig6_overhead/") + query + "/sf" + std::to_string(sf);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [query = std::string(query), sf](benchmark::State& state) {
            RunCase(state, query, sf);
          })
          ->UseManualTime()
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
}

void PrintBreakdown() {
  std::printf(
      "\n=== Figure 6 (left): overhead decomposition (simulated s) ===\n");
  std::printf("%-6s %6s %14s %14s %14s %10s\n", "query", "sf", "stats-upfront",
              "re-optimization", "online-stats", "overhead%");
  for (const auto& r : Records()) {
    if (r.figure != "Figure 6 (left)") continue;
    const ExecMetrics& m = r.metrics;
    double base = m.simulated_seconds - m.reopt_seconds - m.stats_seconds;
    std::printf("%-6s %6d %14.2f %14.2f %14.2f %9.1f%%\n", r.query.c_str(),
                r.paper_sf, base, m.reopt_seconds, m.stats_seconds,
                100.0 * (m.reopt_seconds + m.stats_seconds) /
                    m.simulated_seconds);
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
  dynopt::bench::PrintBreakdown();
  return 0;
}
