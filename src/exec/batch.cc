#include "exec/batch.h"

#include <algorithm>


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

}  // namespace

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

}  // namespace dynopt
