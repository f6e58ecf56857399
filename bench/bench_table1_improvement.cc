// Reproduces Table 1: the average improvement factor of the runtime dynamic
// approach against each other optimization method at paper scale factors
// 100 and 1000 (ratio of the method's simulated time to dynamic's,
// averaged over the four queries; <1 means the method beats dynamic, as
// best-order does by saving the re-optimization overhead).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "bench/harness.h"

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
    AddRecord(MakeRecord("Table 1", query, paper_sf, optimizer, *result));
  }
}

void RegisterAll() {
  // Dynamic registered first per (query, sf) so its plan is available as
  // the best-order hint.
  for (int sf : {100, 1000}) {
    for (const char* query : kQueries) {
      for (const char* optimizer : kOptimizers) {
        std::string name = std::string("table1/") + query + "/sf" +
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

void PrintTable1() {
  std::printf(
      "\n=== Table 1: average improvement of dynamic vs other methods ===\n");
  std::printf("%-10s", "sf");
  const char* others[] = {"cost-based", "pilot-run", "ingres-like",
                          "best-order", "worst-order"};
  for (const char* name : others) std::printf(" %12s", name);
  std::printf("\n");
  for (int sf : {100, 1000}) {
    std::printf("%-10d", sf);
    for (const char* other : others) {
      double ratio_sum = 0;
      int count = 0;
      for (const char* query : kQueries) {
        double dynamic_s = -1, other_s = -1;
        for (const auto& r : Records()) {
          if (r.figure != "Table 1" || r.paper_sf != sf || r.query != query) {
            continue;
          }
          const double sim = r.metrics.simulated_seconds;
          if (r.optimizer == "dynamic") dynamic_s = sim;
          if (r.optimizer == other) other_s = sim;
        }
        if (dynamic_s > 0 && other_s > 0) {
          ratio_sum += other_s / dynamic_s;
          ++count;
        }
      }
      if (count > 0) {
        std::printf(" %11.2fx", ratio_sum / count);
      } else {
        std::printf(" %12s", "-");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "(values are other/dynamic simulated-time ratios averaged over "
      "Q17/Q50/Q8/Q9; >1 means dynamic is faster)\n");
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) {
  dynopt::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dynopt::bench::PrintTable1();
  return 0;
}
