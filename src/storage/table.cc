#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"

namespace dynopt {

SecondaryIndex::SecondaryIndex(std::string column, int column_index,
                               size_t num_partitions)
    : column_(std::move(column)),
      column_index_(column_index),
      partitions_(num_partitions) {}

void SecondaryIndex::Insert(const Value& key, size_t partition,
                            uint32_t row_offset) {
  partitions_[partition][key].push_back(row_offset);
  ++num_entries_;
}

const std::vector<uint32_t>* SecondaryIndex::Lookup(size_t partition,
                                                    const Value& key) const {
  const auto& map = partitions_[partition];
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

Table::Table(std::string name, Schema schema, size_t num_partitions)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      partitions_(num_partitions),
      dicts_(schema_.num_fields()) {
  DYNOPT_CHECK(num_partitions > 0);
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    if (schema_.field(c).type == ValueType::kString) {
      dicts_[c] = std::make_shared<StringDict>();
    }
  }
}

Status Table::SetPartitionKey(const std::vector<std::string>& columns) {
  if (num_rows_ > 0) {
    return Status::InvalidArgument(
        "partition key must be set before loading rows into " + name_);
  }
  std::vector<int> indices;
  for (const auto& col : columns) {
    int idx = schema_.FieldIndex(col);
    if (idx < 0) {
      return Status::NotFound("partition key column " + col +
                              " not in schema of " + name_);
    }
    indices.push_back(idx);
  }
  partition_key_ = columns;
  partition_key_indices_ = std::move(indices);
  return Status::OK();
}

void Table::OpenLoadRun(Partition* part) {
  ColumnBatch run;
  run.columns.resize(schema_.num_fields());
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    run.columns[c].kind = TypedKindFor(schema_.field(c).type);
    run.columns[c].dict = dicts_[c];
  }
  part->run_starts.push_back(part->rows);
  part->runs.push_back(std::move(run));
  part->load_run_open = true;
}

Status Table::AppendRow(const Row& row) {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row of " + std::to_string(row.size()) + " values appended to " +
        name_ + ", which has " + std::to_string(schema_.num_fields()) +
        " columns");
  }
  for (size_t c = 0; c < row.size(); ++c) {
    const ValueType expected = schema_.field(c).type;
    const ValueType actual = row[c].type();
    if (actual != expected && actual != ValueType::kNull) {
      return Status::InvalidArgument(
          "column " + name_ + "." + schema_.field(c).name + " expects " +
          ValueTypeName(expected) + ", got " + ValueTypeName(actual));
    }
  }
  size_t target;
  if (!partition_key_indices_.empty()) {
    target = static_cast<size_t>(HashRowKey(row, partition_key_indices_) %
                                 partitions_.size());
  } else {
    target = static_cast<size_t>(round_robin_next_++ % partitions_.size());
  }
  Partition& part = partitions_[target];
  if (!part.load_run_open) OpenLoadRun(&part);
  ColumnBatch& run = part.runs.back();
  for (size_t c = 0; c < row.size(); ++c) run.columns[c].Append(row[c]);
  const uint64_t size = RowSizeBytes(row);
  run.row_sizes.push_back(size);
  ++run.num_rows;
  ++part.rows;
  part.bytes += size;
  ++num_rows_;
  total_bytes_ += size;
  return Status::OK();
}

Status Table::AppendBatches(size_t partition,
                            std::vector<ColumnBatch>&& batches) {
  if (partition >= partitions_.size()) {
    return Status::InvalidArgument(
        "batches appended to partition " + std::to_string(partition) +
        " of " + name_ + ", which has " +
        std::to_string(partitions_.size()) + " partitions");
  }
  for (const ColumnBatch& batch : batches) {
    if (batch.num_rows == 0) continue;
    if (batch.columns.size() != schema_.num_fields()) {
      return Status::InvalidArgument(
          "batch of " + std::to_string(batch.columns.size()) +
          " columns appended to " + name_ + ", which has " +
          std::to_string(schema_.num_fields()) + " columns");
    }
    if (batch.row_sizes.size() != batch.num_rows) {
      return Status::InvalidArgument(
          "batch of " + std::to_string(batch.num_rows) + " rows with " +
          std::to_string(batch.row_sizes.size()) +
          " row sizes appended to " + name_);
    }
  }
  Partition& part = partitions_[partition];
  part.load_run_open = false;
  for (ColumnBatch& batch : batches) {
    if (batch.num_rows == 0) continue;
    uint64_t bytes = 0;
    for (uint64_t s : batch.row_sizes) bytes += s;
    part.run_starts.push_back(part.rows);
    part.rows += batch.num_rows;
    part.bytes += bytes;
    num_rows_ += batch.num_rows;
    total_bytes_ += bytes;
    part.runs.push_back(std::move(batch));
  }
  batches.clear();
  return Status::OK();
}

std::pair<const ColumnBatch*, size_t> Table::LocateRow(
    size_t p, uint64_t offset) const {
  const Partition& part = partitions_[p];
  DYNOPT_CHECK(offset < part.rows);
  // The run holding `offset` is the last one starting at or before it.
  const size_t run = static_cast<size_t>(
      std::upper_bound(part.run_starts.begin(), part.run_starts.end(),
                       offset) -
      part.run_starts.begin() - 1);
  return {&part.runs[run],
          static_cast<size_t>(offset - part.run_starts[run])};
}

std::vector<Row> Table::ReadRows(size_t p) const {
  std::vector<Row> rows;
  rows.reserve(partitions_[p].rows);
  for (const ColumnBatch& run : partitions_[p].runs) {
    for (size_t i = 0; i < run.num_rows; ++i) rows.push_back(run.RowAt(i));
  }
  return rows;
}

Status Table::CreateSecondaryIndex(const std::string& column) {
  int idx = schema_.FieldIndex(column);
  if (idx < 0) {
    return Status::NotFound("index column " + column + " not in schema of " +
                            name_);
  }
  if (indexes_.count(column) > 0) {
    return Status::AlreadyExists("index on " + name_ + "." + column);
  }
  auto index =
      std::make_unique<SecondaryIndex>(column, idx, partitions_.size());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    uint32_t offset = 0;
    for (const ColumnBatch& run : partitions_[p].runs) {
      const ColumnVector& col = run.columns[static_cast<size_t>(idx)];
      for (size_t i = 0; i < run.num_rows; ++i) {
        index->Insert(col.ValueAt(i), p, offset++);
      }
    }
  }
  indexes_[column] = std::move(index);
  return Status::OK();
}

bool Table::HasSecondaryIndex(const std::string& column) const {
  return indexes_.count(column) > 0;
}

const SecondaryIndex* Table::GetSecondaryIndex(
    const std::string& column) const {
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Table::IndexedColumns() const {
  std::vector<std::string> cols;
  cols.reserve(indexes_.size());
  for (const auto& [col, _] : indexes_) cols.push_back(col);
  return cols;
}

}  // namespace dynopt
