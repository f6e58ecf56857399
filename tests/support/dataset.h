#ifndef DYNOPT_TESTS_SUPPORT_DATASET_H_
#define DYNOPT_TESTS_SUPPORT_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "exec/batch.h"

namespace dynopt {

/// Row-at-a-time oracle support for the tests and bench_kernels: a
/// node-partitioned rowset with the same partitioning and qualified column
/// names as a ColumnarDataset, lossless conversions to and from batches,
/// and the row-level join key helpers the reference kernels use. The
/// engine itself never holds a Dataset.

/// A node-partitioned rowset. Columns carry fully qualified names
/// ("ss.ss_item_sk").
struct Dataset {
  std::vector<std::string> columns;
  std::vector<std::vector<Row>> partitions;

  /// The declared kind of each column, parallel to `columns`: FromDataset
  /// batches column c as kinds[c], so every non-NULL value in it must have
  /// that type. ToDataset records the batches' kinds.
  std::vector<ColumnKind> kinds;

  /// Per-row byte sizes parallel to `partitions`, filled by ToDataset from
  /// the batches' annotation (empty otherwise), so tests can check every
  /// annotation against RowSizeBytes.
  std::vector<std::vector<uint64_t>> row_sizes;

  Dataset() = default;
  Dataset(std::vector<std::string> cols, size_t num_partitions,
          std::vector<ColumnKind> column_kinds = {})
      : columns(std::move(cols)),
        partitions(num_partitions),
        kinds(std::move(column_kinds)) {}

  /// True when row_sizes is present and aligned with partitions.
  bool HasRowSizes() const {
    if (row_sizes.size() != partitions.size()) return false;
    for (size_t p = 0; p < partitions.size(); ++p) {
      if (row_sizes[p].size() != partitions[p].size()) return false;
    }
    return true;
  }

  /// Slot of a qualified column, or -1.
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

/// Splits every partition of `data` into batches of at most
/// `max_batch_size` rows of the declared `data.kinds`, preserving row order
/// exactly; row sizes are computed from the values.
ColumnarDataset FromDataset(const Dataset& data, size_t max_batch_size);

/// Converts batches back to a row Dataset, emitting the row_sizes
/// annotation from the batches' sizes and the kinds from the first
/// non-empty batch (kInt64 for every column when there is none). Exact
/// inverse of FromDataset up to batch boundaries.
Dataset ToDataset(ColumnarDataset&& data);

/// True when any of the key slots of `row` is NULL (SQL equi-join
/// semantics: NULL keys never match, so such rows are skipped on both the
/// build and the probe side).
inline bool AnyJoinKeyNull(const Row& row, const std::vector<int>& keys) {
  for (int k : keys) {
    if (row[static_cast<size_t>(k)].is_null()) return true;
  }
  return false;
}

/// Compares the key slots of two rows position-wise.
inline bool JoinKeysEqual(const Row& a, const std::vector<int>& a_keys,
                          const Row& b, const std::vector<int>& b_keys) {
  for (size_t i = 0; i < a_keys.size(); ++i) {
    if (a[static_cast<size_t>(a_keys[i])] !=
        b[static_cast<size_t>(b_keys[i])]) {
      return false;
    }
  }
  return true;
}

}  // namespace dynopt

#endif  // DYNOPT_TESTS_SUPPORT_DATASET_H_
