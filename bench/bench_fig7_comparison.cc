// Reproduces Figure 7: execution time of the six optimization strategies
// (Dynamic, Best-order, Cost-based, Pilot-run, INGRES-like, Worst-order) on
// TPC-DS Q17/Q50 and TPC-H Q8/Q9 at paper scale factors 10/100/1000, with
// hash and broadcast joins available (no secondary indexes). A seventh
// column adds the sketch-driven dynamic strategy (predicate transfer off,
// so it differs from Dynamic only through AGMS-based join estimates).
//
// Reported benchmark time is the *simulated* cluster time under the cost
// model (UseManualTime); `wall_s` counters carry real elapsed time.

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "common/logging.h"

namespace dynopt {
namespace bench {
namespace {

void RunCase(benchmark::State& state, const std::string& query, int paper_sf,
             const std::string& optimizer) {
  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/false);
  for (auto _ : state) {
    auto result = RunStrategy(engine, paper_sf, optimizer, query,
                              /*enable_inlj=*/false);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(result->metrics.simulated_seconds);
    state.counters["wall_s"] = result->wall_seconds;
    state.counters["rows"] = static_cast<double>(result->rows.size());
    state.counters["shuffled_MB"] =
        static_cast<double>(result->metrics.bytes_shuffled) / 1.0e6;
    state.counters["broadcast_MB"] =
        static_cast<double>(result->metrics.bytes_broadcast) / 1.0e6;
    state.counters["reopts"] =
        static_cast<double>(result->metrics.num_reopt_points);
    AddRecord(MakeRecord("Figure 7", query, paper_sf, optimizer, *result));
  }
}

void RegisterAll() {
  for (int sf : {10, 100, 1000}) {
    for (const char* query : kQueries) {
      for (const char* optimizer : kOptimizers) {
        std::string name = std::string("fig7/") + query + "/sf" +
                           std::to_string(sf) + "/" + optimizer;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [query = std::string(query), sf,
             optimizer = std::string(optimizer)](benchmark::State& state) {
              RunCase(state, query, sf, optimizer);
            })
            ->UseManualTime()
            ->Unit(benchmark::kSecond)
            ->Iterations(1);
      }
    }
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
  dynopt::bench::PrintFigureTable("Figure 7");
  return 0;
}
