#ifndef DYNOPT_EXEC_BATCH_H_
#define DYNOPT_EXEC_BATCH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/column_batch.h"

namespace dynopt {

/// Process-wide count of by-name column lookups (ColumnarDataset::
/// ColumnIndex). A name lookup is an O(columns) string scan, so kernels
/// must resolve every slot once per operator — never inside a row or batch
/// loop. The counter exists for the regression test that pins this
/// invariant: the number of lookups a pipeline performs must be
/// independent of its row count.
inline std::atomic<uint64_t>& ColumnNameLookupCount() {
  static std::atomic<uint64_t> count{0};
  return count;
}

/// Linear-scan column lookup behind ColumnIndex; increments
/// ColumnNameLookupCount().
inline int LinearColumnIndex(const std::vector<std::string>& columns,
                             const std::string& name) {
  ColumnNameLookupCount().fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

/// Node-partitioned batch collections, the one in-memory form of data
/// flowing between the executor's operators. The batch layout itself
/// (ColumnKind, StringDict, ColumnVector, ColumnBatch) lives in
/// storage/column_batch.h because table storage and the batch files of
/// storage/serde use it too: scans borrow column ranges of a table's runs,
/// materialization moves a job's batches into a temp table, and spill and
/// temp files hold whole batches. Rows appear only in result delivery
/// (GatherRows).

/// A node-partitioned batch collection. Each partition is a sequence of
/// batches; batch boundaries within a partition carry no semantics
/// (concatenation order defines row order).
struct ColumnarDataset {
  std::vector<std::string> columns;
  std::vector<std::vector<ColumnBatch>> partitions;

  ColumnarDataset() = default;
  ColumnarDataset(std::vector<std::string> cols, size_t num_partitions)
      : columns(std::move(cols)), partitions(num_partitions) {}

  /// Slot of a qualified column, or -1. Funnels through the instrumented
  /// lookup counter: kernels must resolve slots once per operator, never
  /// inside a batch/row loop.
  int ColumnIndex(const std::string& name) const {
    return LinearColumnIndex(columns, name);
  }

  uint64_t NumRows() const {
    uint64_t n = 0;
    for (const auto& p : partitions) {
      for (const ColumnBatch& b : p) n += b.num_rows;
    }
    return n;
  }

  uint64_t PartitionRows(size_t p) const {
    uint64_t n = 0;
    for (const ColumnBatch& b : partitions[p]) n += b.num_rows;
    return n;
  }

  /// Sum of the row_sizes annotations (== RowSizeBytes over all rows).
  uint64_t TotalBytes() const {
    uint64_t bytes = 0;
    for (const auto& p : partitions) {
      for (const ColumnBatch& b : p) {
        for (uint64_t s : b.row_sizes) bytes += s;
      }
    }
    return bytes;
  }

  /// All rows concatenated in partition-then-row order (result delivery /
  /// tests).
  std::vector<Row> GatherRows() const {
    std::vector<Row> out;
    out.reserve(NumRows());
    for (const auto& p : partitions) {
      for (const ColumnBatch& b : p) {
        for (size_t i = 0; i < b.num_rows; ++i) out.push_back(b.RowAt(i));
      }
    }
    return out;
  }
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_BATCH_H_
