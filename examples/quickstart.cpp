// Quickstart: build a tiny shared-nothing "cluster", load two datasets,
// run a SQL join through the runtime dynamic optimizer, and inspect the
// chosen plan and metrics.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "sql/binder.h"
#include "storage/table.h"

using namespace dynopt;

namespace {

Status RunQuickstart() {
  // 1. An Engine bundles the simulated cluster: catalog, statistics
  //    framework, UDF registry, worker pool. Default: 10 simulated nodes.
  Engine engine;

  // 2. Create and load two hash-partitioned datasets.
  auto users = std::make_shared<Table>(
      "users",
      Schema({{"id", ValueType::kInt64},
              {"name", ValueType::kString},
              {"country", ValueType::kString}}),
      engine.cluster().num_nodes);
  DYNOPT_RETURN_IF_ERROR(users->SetPartitionKey({"id"}));
  for (int64_t i = 0; i < 1000; ++i) {
    DYNOPT_RETURN_IF_ERROR(
        users->AppendRow({Value(i), Value("user_" + std::to_string(i)),
                          Value(i % 7 == 0 ? "DE" : "US")}));
  }
  DYNOPT_RETURN_IF_ERROR(engine.catalog().RegisterTable(users));

  auto orders = std::make_shared<Table>(
      "orders",
      Schema({{"order_id", ValueType::kInt64},
              {"user_id", ValueType::kInt64},
              {"amount", ValueType::kDouble}}),
      engine.cluster().num_nodes);
  DYNOPT_RETURN_IF_ERROR(orders->SetPartitionKey({"order_id"}));
  for (int64_t i = 0; i < 10000; ++i) {
    DYNOPT_RETURN_IF_ERROR(orders->AppendRow(
        {Value(i), Value(i % 1000), Value(static_cast<double>(i % 500))}));
  }
  DYNOPT_RETURN_IF_ERROR(engine.catalog().RegisterTable(orders));

  // 3. Collect load-time statistics (the paper's LSM-ingestion stats):
  //    Greenwald-Khanna quantile sketches + HyperLogLog per column.
  DYNOPT_RETURN_IF_ERROR(
      engine.CollectBaseStats("users", {"id", "country"}));
  DYNOPT_RETURN_IF_ERROR(
      engine.CollectBaseStats("orders", {"order_id", "user_id", "amount"}));

  // 4. Parse + bind a SQL query against the catalog.
  DYNOPT_ASSIGN_OR_RETURN(
      QuerySpec query,
      ParseAndBind("SELECT u.name, o.amount "
                   "FROM users u, orders o "
                   "WHERE u.id = o.user_id AND u.country = 'DE' "
                   "  AND o.amount > 480",
                   engine.catalog()));

  // 5. Run it through the runtime dynamic optimizer.
  DynamicOptimizer optimizer(&engine);
  DYNOPT_ASSIGN_OR_RETURN(OptimizerRunResult result, optimizer.Run(query));

  std::printf("plan: %s\n", result.join_tree->ToString().c_str());
  std::printf("rows: %zu\n", result.rows.size());
  std::printf("simulated seconds: %.4f (re-opt %.4f, online stats %.4f)\n",
              result.metrics.simulated_seconds, result.metrics.reopt_seconds,
              result.metrics.stats_seconds);
  std::printf("stage trace:\n%s", result.plan_trace.c_str());
  for (size_t i = 0; i < result.rows.size() && i < 5; ++i) {
    std::printf("  %s | %s\n", result.rows[i][0].ToString().c_str(),
                result.rows[i][1].ToString().c_str());
  }
  return Status::OK();
}

}  // namespace

int main() {
  Status status = RunQuickstart();
  if (!status.ok()) {
    std::fprintf(stderr, "quickstart failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
