// Reproduces Figure 8: the Figure-7 comparison repeated with the Indexed
// Nested Loop join enabled as a third algorithm choice. Secondary indexes
// are created on the non-primary-key join columns the queries touch
// (fact-table date FKs for TPC-DS, lineitem part/supplier FKs for TPC-H).
// Worst-order is excluded: without hints it never picks INL, so its time is
// unchanged from Figure 7 (as in the paper).

#include <benchmark/benchmark.h>

#include "bench/harness.h"

namespace dynopt {
namespace bench {
namespace {

void RunCase(benchmark::State& state, const std::string& query, int paper_sf,
             const std::string& optimizer) {
  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/true);
  for (auto _ : state) {
    auto result = RunStrategy(engine, paper_sf, optimizer, query,
                              /*enable_inlj=*/true);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(result->metrics.simulated_seconds);
    state.counters["wall_s"] = result->wall_seconds;
    state.counters["index_lookups"] =
        static_cast<double>(result->metrics.index_lookups);
    AddRecord(MakeRecord("Figure 8", query, paper_sf, optimizer, *result));
  }
}

void RegisterAll() {
  for (int sf : {10, 100, 1000}) {
    for (const char* query : kQueries) {
      for (const char* optimizer : kOptimizers) {
        if (std::string(optimizer) == "worst-order") continue;
        std::string name = std::string("fig8/") + query + "/sf" +
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
  dynopt::bench::PrintFigureTable("Figure 8");
  return 0;
}
