#include "stats/table_stats.h"

#include <sstream>

#include "common/logging.h"

namespace dynopt {

const ColumnStatsSnapshot* TableStats::Column(const std::string& name) const {
  auto it = columns.find(name);
  return it == columns.end() ? nullptr : &it->second;
}

std::string TableStats::ToString() const {
  std::ostringstream os;
  os << "rows=" << row_count << " bytes=" << total_bytes;
  for (const auto& [name, snap] : columns) {
    os << "\n  " << name << ": " << snap.ToString();
  }
  return os.str();
}

TableStatsBuilder::TableStatsBuilder(std::vector<std::string> column_names,
                                     std::vector<int> column_indices,
                                     const StatsOptions& options,
                                     Quantiles quantiles)
    : column_names_(std::move(column_names)),
      column_indices_(std::move(column_indices)) {
  DYNOPT_CHECK(column_names_.size() == column_indices_.size());
  builders_.reserve(column_names_.size());
  for (size_t i = 0; i < column_names_.size(); ++i) {
    builders_.emplace_back(options, quantiles);
  }
}

void TableStatsBuilder::AddRow(const Row& row) {
  ++row_count_;
  total_bytes_ += RowSizeBytes(row);
  for (size_t i = 0; i < column_indices_.size(); ++i) {
    builders_[i].Add(row[static_cast<size_t>(column_indices_[i])]);
  }
}

void TableStatsBuilder::Merge(const TableStatsBuilder& other) {
  DYNOPT_CHECK(builders_.size() == other.builders_.size());
  row_count_ += other.row_count_;
  total_bytes_ += other.total_bytes_;
  for (size_t i = 0; i < builders_.size(); ++i) {
    builders_[i].Merge(other.builders_[i]);
  }
}

TableStats TableStatsBuilder::Finalize() const {
  TableStats stats;
  stats.row_count = row_count_;
  stats.total_bytes = total_bytes_;
  for (size_t i = 0; i < builders_.size(); ++i) {
    stats.columns[column_names_[i]] = builders_[i].Finalize();
  }
  return stats;
}

void StatsManager::Put(const std::string& table, TableStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_[table] = std::move(stats);
}

const TableStats* StatsManager::Get(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(table);
  return it == stats_.end() ? nullptr : &it->second;
}

bool StatsManager::Has(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.count(table) > 0;
}

void StatsManager::Remove(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.erase(table);
}

void StatsManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
}

std::vector<std::string> StatsManager::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(stats_.size());
  for (const auto& [name, _] : stats_) names.push_back(name);
  return names;
}

}  // namespace dynopt
