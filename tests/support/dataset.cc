#include "support/dataset.h"

#include <algorithm>

#include "common/logging.h"

namespace dynopt {

namespace {

/// Fills column `c` of the chunk's rows into `out` as `kind`: the typed
/// payload with zeroed NULL slots, validity when any row is NULL, and for
/// strings a fresh dictionary (also for an all-NULL chunk).
void FillColumn(const Row* rows, size_t n, size_t c, ColumnKind kind,
                ColumnVector* out) {
  ColumnVector& col = *out;
  col.kind = kind;
  if (kind == ColumnKind::kString) col.dict = std::make_shared<StringDict>();
  col.Reserve(n);
  for (size_t i = 0; i < n; ++i) col.Append(rows[i][c]);
}

ColumnBatch BatchFromRows(const Row* rows, size_t n,
                          const std::vector<ColumnKind>& kinds) {
  ColumnBatch batch;
  batch.num_rows = n;
  batch.columns.resize(kinds.size());
  for (size_t c = 0; c < kinds.size(); ++c) {
    FillColumn(rows, n, c, kinds[c], &batch.columns[c]);
  }
  batch.row_sizes.resize(n);
  uint64_t* sizes = batch.row_sizes.mutable_data();
  for (size_t i = 0; i < n; ++i) sizes[i] = RowSizeBytes(rows[i]);
  return batch;
}

/// Splits `rows` into batches of at most `max_batch_size` rows, column c
/// of every batch of kind `kinds[c]`, and sizes each row with
/// RowSizeBytes. Every non-NULL value must have its column's type.
std::vector<ColumnBatch> BatchesFromRows(const std::vector<Row>& rows,
                                         const std::vector<ColumnKind>& kinds,
                                         size_t max_batch_size) {
  std::vector<ColumnBatch> batches;
  batches.reserve(rows.size() / max_batch_size + 1);
  for (size_t start = 0; start < rows.size(); start += max_batch_size) {
    const size_t n = std::min(max_batch_size, rows.size() - start);
    batches.push_back(BatchFromRows(rows.data() + start, n, kinds));
  }
  return batches;
}

}  // namespace

ColumnarDataset FromDataset(const Dataset& data, size_t max_batch_size) {
  DYNOPT_CHECK(data.kinds.size() == data.columns.size());
  ColumnarDataset out(data.columns, data.partitions.size());
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    out.partitions[p] =
        BatchesFromRows(data.partitions[p], data.kinds, max_batch_size);
  }
  return out;
}

Dataset ToDataset(ColumnarDataset&& data) {
  Dataset out(std::move(data.columns), data.partitions.size());
  out.kinds.assign(out.columns.size(), ColumnKind::kInt64);
  bool have_kinds = false;
  out.row_sizes.resize(data.partitions.size());
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    auto& rows = out.partitions[p];
    auto& sizes = out.row_sizes[p];
    uint64_t total = 0;
    for (const ColumnBatch& b : data.partitions[p]) total += b.num_rows;
    rows.reserve(total);
    sizes.reserve(total);
    for (ColumnBatch& b : data.partitions[p]) {
      if (!have_kinds && b.num_rows > 0) {
        for (size_t c = 0; c < b.columns.size(); ++c) {
          out.kinds[c] = b.columns[c].kind;
        }
        have_kinds = true;
      }
      for (size_t i = 0; i < b.num_rows; ++i) rows.push_back(b.RowAt(i));
      sizes.insert(sizes.end(), b.row_sizes.begin(), b.row_sizes.end());
      b = ColumnBatch();  // Free as we go: peak memory is one batch.
    }
    data.partitions[p].clear();
  }
  data.partitions.clear();
  return out;
}

}  // namespace dynopt
