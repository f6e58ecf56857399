#ifndef DYNOPT_EXEC_BATCH_H_
#define DYNOPT_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "exec/dataset.h"
#include "storage/column_batch.h"

namespace dynopt {

/// Node-partitioned batch collections for the vectorized execution engine.
/// The batch layout itself (ColumnKind, StringDict, ColumnVector,
/// ColumnBatch) lives in storage/column_batch.h because table storage uses
/// it too: scans copy column ranges out of a table's runs, and
/// materialization moves a job's batches into a temp table. Row `Dataset`
/// remains only where rows are the contract — result delivery, the DRB
/// temp-file round trip, the grace-join spill path, and the row engine —
/// converted losslessly by FromDataset/ToDataset with byte-identical
/// row_sizes.

/// A node-partitioned batch collection — the columnar analogue of Dataset.
/// Each partition is a sequence of batches; batch boundaries within a
/// partition carry no semantics (concatenation order defines row order).
struct ColumnarDataset {
  std::vector<std::string> columns;
  std::vector<std::vector<ColumnBatch>> partitions;

  ColumnarDataset() = default;
  ColumnarDataset(std::vector<std::string> cols, size_t num_partitions)
      : columns(std::move(cols)), partitions(num_partitions) {}

  /// Slot of a qualified column, or -1. Funnels through the same
  /// instrumented lookup counter as Dataset::ColumnIndex: kernels must
  /// resolve slots once per operator, never inside a batch/row loop.
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

/// Splits `rows` into batches of at most `max_batch_size` rows, inferring
/// one ColumnKind per column and batch (kValues when a column mixes value
/// types). When `sizes` is non-null it must hold RowSizeBytes for each row
/// (a producer's annotation) and is copied; otherwise sizes are computed
/// from the values.
std::vector<ColumnBatch> BatchesFromRows(const std::vector<Row>& rows,
                                         const uint64_t* sizes,
                                         size_t num_columns,
                                         size_t max_batch_size);

/// Splits every partition of `data` into batches of at most
/// `max_batch_size` rows. Row order and the row_sizes annotation (computed
/// when absent) are preserved exactly.
ColumnarDataset FromDataset(const Dataset& data, size_t max_batch_size);

/// Converts back to a row Dataset (the grace-join spill path and tests),
/// emitting the row_sizes annotation from the batches' sizes. Exact inverse
/// of FromDataset up to batch boundaries.
Dataset ToDataset(ColumnarDataset&& data);

}  // namespace dynopt

#endif  // DYNOPT_EXEC_BATCH_H_
