// Interactive SQL shell over the workload catalog: loads TPC-H and TPC-DS
// (tiny scale by default), then reads select-project-join queries from
// stdin and executes each through a chosen optimizer.
//
//   ./build/examples/sql_shell [sf]
//
// Shell commands:
//   \tables            list catalog tables (including the sys.* virtual
//                      tables of the live introspection plane)
//   \opt NAME          switch optimizer: dynamic | cost-based |
//                      pilot-run | ingres-like | sketch-dynamic |
//                      worst-order (best-order needs a hint the shell
//                      cannot give; an unknown name is refused)
//   \explain SQL       show the DP plan with cardinality estimates
//   \trace             toggle plan-trace printing
//   \q                 quit
// Anything else is parsed as SQL, e.g.:
//   SELECT n.n_name, s.s_acctbal FROM nation n, supplier s
//   WHERE n.n_nationkey = s.s_nationkey AND s.s_acctbal > 9000
// Introspection is enabled, so completed queries are archived and
// queryable right back through SQL:
//   SELECT * FROM sys.queries
//   SELECT * FROM sys.decisions
//   SELECT * FROM sys.metrics

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "exec/engine.h"
#include "opt/explain.h"
#include "opt/strategies.h"
#include "sql/binder.h"
#include "sys/system_tables.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

using namespace dynopt;

namespace {

void RunQuery(Engine* engine, const std::string& sql, Optimizer* optimizer,
              bool trace) {
  auto query = ParseAndBind(sql, engine->catalog());
  if (!query.ok()) {
    std::printf("error: %s\n", query.status().ToString().c_str());
    return;
  }
  Result<OptimizerRunResult> result = optimizer->Run(query.value());
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  const OptimizerRunResult& r = result.value();
  if (trace && !r.plan_trace.empty()) std::printf("%s", r.plan_trace.c_str());
  if (r.join_tree != nullptr) {
    std::printf("plan: %s\n", r.join_tree->ToString().c_str());
  }
  // Header + first rows.
  for (size_t i = 0; i < r.columns.size(); ++i) {
    std::printf(i == 0 ? "%s" : " | %s", r.columns[i].c_str());
  }
  std::printf("\n");
  const size_t limit = 20;
  for (size_t i = 0; i < r.rows.size() && i < limit; ++i) {
    for (size_t c = 0; c < r.rows[i].size(); ++c) {
      std::printf(c == 0 ? "%s" : " | %s", r.rows[i][c].ToString().c_str());
    }
    std::printf("\n");
  }
  if (r.rows.size() > limit) {
    std::printf("... (%zu rows total)\n", r.rows.size());
  }
  std::printf("[%zu rows, %.3f simulated s, %.3f wall s]\n", r.rows.size(),
              r.metrics.simulated_seconds, r.wall_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.2;
  Engine engine;
  TpchOptions tpch;
  tpch.sf = sf;
  TpcdsOptions tpcds;
  tpcds.sf = sf;
  if (!LoadTpch(&engine, tpch).ok() || !LoadTpcds(&engine, tpcds).ok()) {
    std::fprintf(stderr, "failed to load workloads\n");
    return 1;
  }
  // Live introspection: completed queries land in the profile archive and
  // every sys.* table is queryable like any other (at zero simulated cost).
  EnableIntrospection(&engine);
  std::printf("dynopt SQL shell — workloads loaded at sf %.2f.\n", sf);
  std::printf("optimizer: dynamic. \\opt, \\tables, \\trace, \\q.\n");
  std::printf("introspection on: try SELECT * FROM sys.queries\n");

  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer(&engine, "dynamic", PlannerOptions(), nullptr).value();
  bool trace = false;
  std::string line;
  while (true) {
    std::printf("dynopt> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\q") break;
    if (line == "\\tables") {
      for (const auto& name : engine.catalog().TableNames()) {
        auto table = engine.catalog().GetTable(name);
        std::printf("  %s (%llu rows)\n", name.c_str(),
                    static_cast<unsigned long long>(
                        table.value()->NumRows()));
      }
      continue;
    }
    if (line == "\\trace") {
      trace = !trace;
      std::printf("trace %s\n", trace ? "on" : "off");
      continue;
    }
    if (line.rfind("\\opt ", 0) == 0) {
      auto made = MakeOptimizer(&engine, line.substr(5), PlannerOptions(),
                                nullptr);
      if (!made.ok()) {
        std::printf("error: %s\n", made.status().ToString().c_str());
        continue;
      }
      optimizer = std::move(made).value();
      std::printf("optimizer: %s\n", optimizer->name().c_str());
      continue;
    }
    if (line.rfind("\\explain ", 0) == 0) {
      auto query = ParseAndBind(line.substr(9), engine.catalog());
      if (!query.ok()) {
        std::printf("error: %s\n", query.status().ToString().c_str());
        continue;
      }
      auto explained = ExplainStatic(&engine, query.value());
      if (!explained.ok()) {
        std::printf("error: %s\n", explained.status().ToString().c_str());
        continue;
      }
      std::printf("%s", explained->c_str());
      continue;
    }
    RunQuery(&engine, line, optimizer.get(), trace);
  }
  return 0;
}
