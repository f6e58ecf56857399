#include "support/dataset.h"

#include "common/logging.h"

namespace dynopt {

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
