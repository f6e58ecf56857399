#ifndef DYNOPT_EXEC_VECTOR_KERNELS_H_
#define DYNOPT_EXEC_VECTOR_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/batch.h"
#include "plan/expr.h"
#include "stats/sketch.h"
#include "stats/table_stats.h"

namespace dynopt {

class UdfRegistry;

/// Vectorized kernels over ColumnBatch: per-column loops with tight typed
/// inner loops instead of per-value variant dispatch. Every kernel is
/// bit-identical to the row-level Value
/// semantics — same hash math as HashRowKey, same byte sizes as
/// RowSizeBytes, same comparison semantics (including the
/// all-numeric-comparisons-coerce-to-double rule of Value::Compare) — so
/// results and metering match the row oracle under tests/support.

/// Combined key hash of every row of `batch` into `out`, bit-identical to
/// HashRowKey(row, keys): seeded, then HashCombine of each key
/// column's value hash, column-at-a-time. `key_null[i]` is set to 1 when
/// any key of row i is NULL (left untouched otherwise — callers zero it).
/// Both arrays must hold batch.num_rows elements.
void HashKeyColumns(const ColumnBatch& batch, const int* keys,
                    size_t num_keys, uint64_t* out, uint8_t* key_null);

/// Only the NULL-key mask of HashKeyColumns (probe sides that already have
/// hashes from the shuffle still need the mask).
void AnyKeyNull(const ColumnBatch& batch, const int* keys, size_t num_keys,
                uint8_t* key_null);

/// Value equality between row i of `a` and row j of `b` under Value
/// semantics (operator==, i.e. Compare() == 0: numeric pairs compare as
/// doubles, strings bytewise, NULL equals only NULL).
bool ColumnValueEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                      size_t j);

/// Position-wise key equality of build row i and probe row j.
inline bool JoinKeysEqual(const ColumnBatch& build, size_t i,
                                  const ColumnBatch& probe, size_t j,
                                  const int* build_keys, const int* probe_keys,
                                  size_t num_keys) {
  for (size_t k = 0; k < num_keys; ++k) {
    if (!ColumnValueEqual(build.columns[static_cast<size_t>(build_keys[k])], i,
                          probe.columns[static_cast<size_t>(probe_keys[k])],
                          j)) {
      return false;
    }
  }
  return true;
}

/// Rows [begin, begin + n) of the `num_keep` column slots in `keep` of
/// `src`, in that order, as a batch that borrows `src`'s buffers (a scan's
/// slice of a stored run): no element is copied, and string columns share
/// the source dictionary. Each row is sized from its kept values (8-byte
/// header plus each value's cost-model size, column at a time) into fresh
/// row sizes, or shares the source's cached sizes when `keep` is every
/// column in order.
ColumnBatch SliceBatch(const ColumnBatch& src, size_t begin, size_t n,
                       const int* keep, size_t num_keep);

/// Feeds `n` values of `col` to `out` in row order: rows sel[0..n) when
/// `sel` is non-null, rows [0, n) otherwise, through the builder's typed
/// bulk add for the column's kind (string columns with the dictionary's
/// cached hashes). Equivalent to out->Add(col.ValueAt(i)) per row.
void AddColumnToStats(const ColumnVector& col, const uint32_t* sel, size_t n,
                      ColumnStatsBuilder* out);

/// Feeds every row of `batch` to `builder` column-at-a-time (the builder's
/// column indices are batch slots): the same statistics AddRow over each
/// row would produce.
void AddBatchToStats(const ColumnBatch& batch, TableStatsBuilder* builder);

/// Feeds column `column` of every row of `batch` to a join-key sketch, in
/// row order: counts rows and NULL keys, and inserts each non-NULL key's
/// hash (HashRowKey over that one column) into the Bloom filter and
/// Fast-AGMS sketch.
void AddColumnToSketch(const ColumnBatch& batch, int column,
                       JoinKeySketch* sketch);

/// Rows of one batch read in place: rows sel[0..num_rows) of `*batch` in
/// that order, or rows [0, num_rows) when `sel` is null. `hashes`, when
/// non-null, holds the key hash of each viewed row (aligned with `sel`).
/// A view borrows everything it points to. The shuffle's routes and the
/// hash join's inputs are lists of views.
struct BatchView {
  const ColumnBatch* batch = nullptr;
  const uint32_t* sel = nullptr;
  const uint64_t* hashes = nullptr;
  size_t num_rows = 0;
};

/// Gathers the rows of `views`, in order, into one fresh batch whose
/// buffers are allocated once, at exactly the rows' total, and written by
/// typed indexed writes without a zero-fill first: the join's flat build
/// side (hash-table entries index its row space), predicate transfer's
/// compaction, and with `keep` a filtered leaf slice's survivors. `keep`,
/// when non-null, lists the `num_keep` column slots to gather, in output
/// order (a slot may repeat); the rows are then sized from their kept
/// values, as SliceBatch does, unless `keep` is every column in order.
/// Without it every column is gathered with its cached row size. The
/// views' columns must agree in kind. A string column adopts the first
/// view's dictionary and interns rows from other dictionaries into a
/// private clone of it. Returns an empty batch without columns when
/// `views` is empty.
ColumnBatch GatherViews(const std::vector<BatchView>& views,
                        const int* keep = nullptr, size_t num_keep = 0);

/// Where a join's output column comes from: slot `slot` of the build-side
/// (outer) batch or of the probe-side (inner) batch.
struct SinkColumn {
  enum Side : uint8_t { kBuild, kProbe };
  Side side;
  int slot;
};

/// Accumulates gathered join rows into fixed-capacity output batches
/// (max_batch_size rows each); each destination column takes its source's
/// kind, and string columns merge dictionaries. A fresh batch reserves each
/// column and its row sizes for min(max_batch_size, 4096) rows once, so
/// appends write in place instead of growing the buffers. Join emission
/// funnels through this sink, and a Project above the join is folded into
/// its column list, so a projected join gathers only the columns it keeps.
class BatchSink {
 public:
  /// `columns` (borrowed, resolved once per join) lists the output columns.
  BatchSink(const std::vector<SinkColumn>* columns, size_t max_batch_size,
            std::vector<ColumnBatch>* out)
      : columns_(columns), capacity_(max_batch_size), out_(out) {}

  /// Appends `n` joined rows: each output column gathered by `bsel` from
  /// `build` or by `psel` from `probe`. Each row's size is computed from
  /// the gathered columns, column at a time: 8 bytes of header plus each
  /// value's size, as RowSizeBytes.
  void AppendJoinGather(const ColumnBatch& build, const uint32_t* bsel,
                        const ColumnBatch& probe, const uint32_t* psel,
                        size_t n);

  /// Emits the final partial batch (no-op when empty). Call exactly once.
  void Flush();

 private:
  void EnsureOpen();
  void CloseIfFull();
  /// Rows each fresh output column and row-size array is reserved for.
  size_t ReservedRows() const { return std::min<size_t>(capacity_, 4096); }

  const std::vector<SinkColumn>* columns_;
  size_t capacity_;
  std::vector<ColumnBatch>* out_;
  ColumnBatch cur_;
  bool open_ = false;
};

/// A filter predicate compiled against a batch schema: evaluates
/// column-at-a-time into a tri-state mask (false / true / NULL) with the
/// same semantics as the row-at-a-time BoundExpr tree — leaf comparisons
/// propagate NULL, AND/OR/NOT coerce their children through EvalBool
/// (NULL -> false), and the top-level filter applies the same coercion.
/// Compilation resolves column names to slots once (never inside the batch
/// loop) and fails like Bind() on unresolved columns / params / UDFs.
class VecPredicate {
 public:
  VecPredicate() = default;
  VecPredicate(VecPredicate&&) = default;
  VecPredicate& operator=(VecPredicate&&) = default;

  static Result<VecPredicate> Compile(
      const ExprPtr& expr, const std::vector<std::string>& columns,
      const std::map<std::string, Value>* params, const UdfRegistry* udfs);

  /// Fills `keep` (resized to batch.num_rows) with 1 for rows passing the
  /// predicate under EvalBool coercion, 0 otherwise.
  void EvalBools(const ColumnBatch& batch, std::vector<uint8_t>* keep) const;

  struct Node;

 private:
  explicit VecPredicate(std::unique_ptr<Node> root);

  std::shared_ptr<Node> root_;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_VECTOR_KERNELS_H_
