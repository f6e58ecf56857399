#include "opt/sketch_optimizer.h"

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "exec/vector_kernels.h"

namespace dynopt {

namespace {

DynamicOptimizerOptions MakeSketchOptions(const PlannerOptions& base) {
  DynamicOptimizerOptions options;
  options.planner = base;
  options.use_sketches = true;
  return options;
}

}  // namespace

SketchDynamicOptimizer::SketchDynamicOptimizer(Engine* engine,
                                               const PlannerOptions& options)
    : DynamicOptimizer(engine, MakeSketchOptions(options)) {}

Status SketchDynamicOptimizer::EnsureBaseSketches(const QuerySpec& query,
                                                  ExecMetrics* metrics) {
  const double stats_rate = engine_->cluster().stats_seconds_per_value;

  for (const auto& ref : query.tables) {
    if (ref.is_intermediate) continue;
    // Unqualified join-key columns of this table.
    std::set<std::string> columns;
    const std::string prefix = ref.alias + ".";
    for (const auto& edge : query.joins) {
      if (!edge.Involves(ref.alias)) continue;
      for (std::string key : edge.KeysOf(ref.alias)) {
        if (key.rfind(prefix, 0) == 0) key = key.substr(prefix.size());
        columns.insert(std::move(key));
      }
    }
    if (columns.empty()) continue;
    DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                            engine_->catalog().GetTable(ref.table));
    for (const auto& column : columns) {
      if (engine_->sketches().Has(ref.table, column)) continue;  // Amortized.
      const int col = table->schema().FieldIndex(column);
      if (col < 0) continue;  // Nothing to sketch (resolved at plan time).
      auto sketch = std::make_shared<JoinKeySketch>(
          JoinKeySketch::ForKeys(table->NumRows()));
      for (size_t p = 0; p < table->num_partitions(); ++p) {
        for (const ColumnBatch& run : table->partition(p)) {
          AddColumnToSketch(run, col, sketch.get());
        }
      }
      engine_->sketches().Put(ref.table, column,
                              std::move(sketch));
      // Priced like online statistics: one pass over the column, split
      // across the table's partitions (each node sketches its local rows).
      const double seconds =
          static_cast<double>(table->NumRows()) * stats_rate /
          static_cast<double>(std::max<size_t>(table->num_partitions(), 1));
      metrics->stats_seconds += seconds;
      metrics->simulated_seconds += seconds;
    }
  }
  return Status::OK();
}

Result<OptimizerRunResult> SketchDynamicOptimizer::Run(
    const QuerySpec& query) {
  // A query cancelled before it starts pays for no sketches.
  DYNOPT_RETURN_IF_ERROR(CheckContext());
  ExecMetrics sketch_metrics;
  DYNOPT_RETURN_IF_ERROR(EnsureBaseSketches(query, &sketch_metrics));
  return DynamicOptimizer::Run(query, sketch_metrics);
}

}  // namespace dynopt
