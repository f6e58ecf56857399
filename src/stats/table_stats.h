#ifndef DYNOPT_STATS_TABLE_STATS_H_
#define DYNOPT_STATS_TABLE_STATS_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/value.h"
#include "stats/column_stats.h"

namespace dynopt {

/// Statistics for one (base or intermediate) dataset: row count, byte size
/// and per-column snapshots for the columns the optimizer cares about
/// (join keys and filtered columns — the paper collects "statistics for
/// every field of a dataset that may participate in any query", and online
/// only for "attributes that participate on subsequent join stages").
struct TableStats {
  uint64_t row_count = 0;
  uint64_t total_bytes = 0;
  std::map<std::string, ColumnStatsSnapshot> columns;

  bool HasColumn(const std::string& name) const {
    return columns.count(name) > 0;
  }
  /// Returns nullptr when the column was not collected.
  const ColumnStatsSnapshot* Column(const std::string& name) const;

  std::string ToString() const;
};

/// Streaming, mergeable builder for TableStats: feed rows, naming which row
/// slots correspond to which stat columns. Columnar callers feed the same
/// data column-at-a-time instead: AddRows for the counts, then each stat
/// column's values in row order through column(i).
class TableStatsBuilder {
 public:
  /// `column_names[i]` is collected from row position `column_indices[i]`;
  /// `quantiles` applies to every column.
  TableStatsBuilder(std::vector<std::string> column_names,
                    std::vector<int> column_indices,
                    const StatsOptions& options = StatsOptions(),
                    Quantiles quantiles = Quantiles::kCollect);

  void AddRow(const Row& row);
  /// Counts `rows` rows totalling `bytes` whose values the caller feeds
  /// through column(i).
  void AddRows(uint64_t rows, uint64_t bytes) {
    row_count_ += rows;
    total_bytes_ += bytes;
  }
  ColumnStatsBuilder& column(size_t i) { return builders_[i]; }
  /// Source slot of stat column i.
  const std::vector<int>& column_indices() const { return column_indices_; }
  void Merge(const TableStatsBuilder& other);
  TableStats Finalize() const;

  uint64_t row_count() const { return row_count_; }

 private:
  std::vector<std::string> column_names_;
  std::vector<int> column_indices_;
  uint64_t row_count_ = 0;
  uint64_t total_bytes_ = 0;
  std::vector<ColumnStatsBuilder> builders_;
};

/// Thread-safe registry mapping dataset name -> TableStats. This is the
/// "statistics collection framework" the optimizer consults; upfront stats
/// land here at load time and online stats at each re-optimization point.
class StatsManager {
 public:
  void Put(const std::string& table, TableStats stats);
  /// Returns nullptr when no stats exist for `table`.
  const TableStats* Get(const std::string& table) const;
  bool Has(const std::string& table) const;
  void Remove(const std::string& table);
  void Clear();

  std::vector<std::string> TableNames() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TableStats> stats_;
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_TABLE_STATS_H_
