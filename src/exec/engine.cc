#include "exec/engine.h"

#include "exec/vector_kernels.h"

namespace dynopt {

Status Engine::CollectBaseStats(const std::string& table,
                                const std::vector<std::string>& columns,
                                const StatsOptions& options) {
  DYNOPT_RETURN_IF_ERROR(ValidateStatsOptions(options));
  DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, catalog_.GetTable(table));
  std::vector<int> indices;
  for (const auto& col : columns) {
    int idx = t->schema().FieldIndex(col);
    if (idx < 0) {
      return Status::NotFound("stats column " + col + " not in " + table);
    }
    indices.push_back(idx);
  }
  const size_t num_parts = t->num_partitions();
  std::vector<TableStatsBuilder> builders;
  builders.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    builders.emplace_back(columns, indices, options);
  }
  pool_.ParallelFor(num_parts, [&](size_t p) {
    for (const ColumnBatch& run : t->partition(p)) {
      AddBatchToStats(run, &builders[p]);
    }
  });
  TableStatsBuilder merged(columns, indices, options);
  for (const auto& b : builders) merged.Merge(b);
  TableStats stats = merged.Finalize();
  stats.row_count = t->NumRows();
  stats.total_bytes = t->TotalBytes();
  stats_.Put(table, std::move(stats));
  return Status::OK();
}

}  // namespace dynopt
