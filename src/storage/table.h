#ifndef DYNOPT_STORAGE_TABLE_H_
#define DYNOPT_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/column_batch.h"
#include "storage/schema.h"

namespace dynopt {

/// Hash functor so Value can key unordered containers.
struct ValueHasher {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

/// Secondary hash index over one column of a partitioned table, partitioned
/// the same way as the table itself (each node indexes its local rows, as
/// AsterixDB's local secondary indexes do). Used by the indexed nested loop
/// join: broadcast rows arriving at a node probe the local index.
class SecondaryIndex {
 public:
  SecondaryIndex(std::string column, int column_index, size_t num_partitions);

  /// Registers that row `row_offset` of partition `partition` has `key` in
  /// the indexed column.
  void Insert(const Value& key, size_t partition, uint32_t row_offset);

  /// Local row offsets in `partition` whose indexed column equals `key`;
  /// nullptr when none.
  const std::vector<uint32_t>* Lookup(size_t partition,
                                      const Value& key) const;

  const std::string& column() const { return column_; }
  int column_index() const { return column_index_; }
  uint64_t num_entries() const { return num_entries_; }

 private:
  std::string column_;
  int column_index_;
  uint64_t num_entries_ = 0;
  std::vector<std::unordered_map<Value, std::vector<uint32_t>, ValueHasher>>
      partitions_;
};

/// A dataset stored as immutable typed column runs: rows hash-partitioned
/// across the simulated cluster's nodes, each partition a sequence of
/// ColumnBatch runs in row order. Base tables are bulk-loaded row by row
/// (AppendRow) and then only read, as in the paper's experimental setup;
/// temp tables take the batches a job produced (AppendBatches). Each run
/// caches every row's full cost-model size, and each partition its row
/// count and byte total, so scans never re-size rows. String columns
/// loaded through AppendRow share one dictionary per column across all
/// partitions. Scans borrow the runs' buffers rather than copy them (see
/// SharedBuffer), so a run appended to after a scan copies on write.
class Table {
 public:
  Table(std::string name, Schema schema, size_t num_partitions);

  /// Declares the columns rows are hash-partitioned on (typically the
  /// primary key). Must be called before appending rows; when never called,
  /// rows are spread round-robin.
  Status SetPartitionKey(const std::vector<std::string>& columns);

  /// Appends one row to its home partition — the load API. Values go into
  /// the partition's open run column by column: NULLs into validity,
  /// strings into the column's shared dictionary. A row whose arity differs
  /// from the schema, or with a non-NULL value whose type is not its
  /// field's, is rejected with kInvalidArgument before anything changes.
  Status AppendRow(const Row& row);

  /// Moves finished batches onto the end of `partition` as new runs (the
  /// materialization sink, so the producing node's placement — and any
  /// skew — survives). The runs keep the batches' buffers, which may be
  /// shared with the batches' sources. Each non-empty batch must have one
  /// column per schema field and row_sizes holding RowSizeBytes of each
  /// row. A partition out of range, or any batch breaking those rules, is
  /// rejected with kInvalidArgument before anything is moved in.
  Status AppendBatches(size_t partition, std::vector<ColumnBatch>&& batches);

  /// Builds a secondary index over `column` (for the Figure-8 INLJ
  /// experiments). Call after loading completes.
  Status CreateSecondaryIndex(const std::string& column);

  bool HasSecondaryIndex(const std::string& column) const;
  /// nullptr when no index exists on `column`.
  const SecondaryIndex* GetSecondaryIndex(const std::string& column) const;
  std::vector<std::string> IndexedColumns() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_partitions() const { return partitions_.size(); }
  /// The column runs of partition `p`, in row order.
  const std::vector<ColumnBatch>& partition(size_t p) const {
    return partitions_[p].runs;
  }
  uint64_t PartitionRows(size_t p) const { return partitions_[p].rows; }
  uint64_t PartitionBytes(size_t p) const { return partitions_[p].bytes; }
  const std::vector<std::string>& partition_key() const {
    return partition_key_;
  }

  /// The stored run holding row `offset` of partition `p`, and the row's
  /// position within that run (the index nested loop join resolves its
  /// index matches through this). `offset` must be below PartitionRows(p).
  std::pair<const ColumnBatch*, size_t> LocateRow(size_t p,
                                                  uint64_t offset) const;
  /// Every row of partition `p`, in order.
  std::vector<Row> ReadRows(size_t p) const;

  uint64_t NumRows() const { return num_rows_; }
  uint64_t TotalBytes() const { return total_bytes_; }

 private:
  struct Partition {
    std::vector<ColumnBatch> runs;
    std::vector<uint64_t> run_starts;  ///< First row offset of each run.
    uint64_t rows = 0;
    uint64_t bytes = 0;
    bool load_run_open = false;  ///< Last run accepts AppendRow.
  };

  /// Starts the AppendRow run of `part`: one empty column per field, typed
  /// after the schema (TypedKindFor), string columns on the shared
  /// dictionaries.
  void OpenLoadRun(Partition* part);

  std::string name_;
  Schema schema_;
  std::vector<Partition> partitions_;
  /// Per-field shared dictionary of AppendRow-loaded string columns (null
  /// for non-string fields).
  std::vector<std::shared_ptr<StringDict>> dicts_;
  std::vector<std::string> partition_key_;
  std::vector<int> partition_key_indices_;
  uint64_t num_rows_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t round_robin_next_ = 0;
  std::map<std::string, std::unique_ptr<SecondaryIndex>> indexes_;
};

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_TABLE_H_
