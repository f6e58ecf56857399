#ifndef DYNOPT_EXEC_DATASET_H_
#define DYNOPT_EXEC_DATASET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace dynopt {

/// Process-wide count of by-name column lookups (Dataset::ColumnIndex and
/// ColumnarDataset::ColumnIndex). A name lookup is an O(columns) string
/// scan, so kernels must resolve every slot once per operator — never
/// inside a row or batch loop. The counter exists for the regression test
/// that pins this invariant: the number of lookups a pipeline performs must
/// be independent of its row count.
inline std::atomic<uint64_t>& ColumnNameLookupCount() {
  static std::atomic<uint64_t> count{0};
  return count;
}

/// Shared linear-scan implementation behind both ColumnIndex methods;
/// increments ColumnNameLookupCount().
inline int LinearColumnIndex(const std::vector<std::string>& columns,
                             const std::string& name) {
  ColumnNameLookupCount().fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

/// A runtime, node-partitioned rowset flowing between physical operators.
/// Columns carry fully qualified names ("ss.ss_item_sk"); intermediate
/// results keep the qualified names of their inputs so reconstruction of
/// the remaining query needs no renaming.
struct Dataset {
  std::vector<std::string> columns;
  std::vector<std::vector<Row>> partitions;

  /// Optional per-row byte sizes, parallel to `partitions`: when non-empty,
  /// row_sizes[p][i] == RowSizeBytes(partitions[p][i]). Producers that
  /// already have every value in cache (scan projection, join emission)
  /// record sizes for ~free; the shuffle then meters network bytes from
  /// this 8-byte-per-row array instead of re-walking each row's payload
  /// (the dominant memory traffic of routing). Operators that cannot
  /// maintain the invariant must leave/clear it empty — consumers validate
  /// shape via HasRowSizes() and fall back to computing sizes.
  std::vector<std::vector<uint64_t>> row_sizes;

  Dataset() = default;
  Dataset(std::vector<std::string> cols, size_t num_partitions)
      : columns(std::move(cols)), partitions(num_partitions) {}

  /// True when row_sizes is present and aligned with partitions.
  bool HasRowSizes() const {
    if (row_sizes.size() != partitions.size()) return false;
    for (size_t p = 0; p < partitions.size(); ++p) {
      if (row_sizes[p].size() != partitions[p].size()) return false;
    }
    return true;
  }

  /// Slot of a qualified column, or -1. O(columns) — resolve once per
  /// operator (the instrumented counter backs a regression test that no
  /// kernel calls this inside a row loop).
  int ColumnIndex(const std::string& name) const {
    return LinearColumnIndex(columns, name);
  }

  uint64_t NumRows() const {
    uint64_t n = 0;
    for (const auto& p : partitions) n += p.size();
    return n;
  }

  /// All rows concatenated (result delivery / tests).
  std::vector<Row> GatherRows() const {
    std::vector<Row> out;
    out.reserve(NumRows());
    for (const auto& p : partitions) out.insert(out.end(), p.begin(), p.end());
    return out;
  }
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_DATASET_H_
