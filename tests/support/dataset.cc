#include "support/dataset.h"

namespace dynopt {

ColumnarDataset FromDataset(const Dataset& data, size_t max_batch_size) {
  ColumnarDataset out(data.columns, data.partitions.size());
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    out.partitions[p] = BatchesFromRows(data.partitions[p],
                                        data.columns.size(), max_batch_size);
  }
  return out;
}

Dataset ToDataset(ColumnarDataset&& data) {
  Dataset out(std::move(data.columns), data.partitions.size());
  out.row_sizes.resize(data.partitions.size());
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    auto& rows = out.partitions[p];
    auto& sizes = out.row_sizes[p];
    uint64_t total = 0;
    for (const ColumnBatch& b : data.partitions[p]) total += b.num_rows;
    rows.reserve(total);
    sizes.reserve(total);
    for (ColumnBatch& b : data.partitions[p]) {
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
