#include "exec/batch.h"

#include <algorithm>


namespace dynopt {

namespace {

/// Per-column type scan over one chunk of rows: the unique non-NULL value
/// type, or kValues when types mix. All-NULL columns land on kInt64 (all
/// invalid), which round-trips since validity masks every slot.
ColumnKind InferKind(const Row* rows, size_t n, size_t col, bool* has_nulls) {
  ValueType seen = ValueType::kNull;
  bool mixed = false;
  bool nulls = false;
  for (size_t i = 0; i < n; ++i) {
    const Value& v = rows[i][col];
    const ValueType t = v.type();
    if (t == ValueType::kNull) {
      nulls = true;
      continue;
    }
    if (seen == ValueType::kNull) {
      seen = t;
    } else if (t != seen) {
      mixed = true;
      break;
    }
  }
  *has_nulls = nulls;
  return mixed ? ColumnKind::kValues : TypedKindFor(seen);
}

/// Infers the kind of source column `c` over the chunk and fills one
/// ColumnVector from it (typed fill, zeroed NULL slots, dict interning).
void FillColumn(const Row* rows, size_t n, size_t c, ColumnVector* out) {
  ColumnVector& col = *out;
  bool has_nulls = false;
  col.kind = InferKind(rows, n, c, &has_nulls);
  if (has_nulls && col.kind != ColumnKind::kValues) {
    col.validity.assign(n, 1);
  }
  switch (col.kind) {
    case ColumnKind::kInt64:
      col.i64.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][c];
        if (v.is_null()) {
          col.validity[i] = 0;
          col.i64[i] = 0;
        } else {
          col.i64[i] = v.AsInt64();
        }
      }
      break;
    case ColumnKind::kDouble:
      col.f64.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][c];
        if (v.is_null()) {
          col.validity[i] = 0;
          col.f64[i] = 0;
        } else {
          col.f64[i] = v.AsDouble();
        }
      }
      break;
    case ColumnKind::kBool:
      col.b8.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][c];
        if (v.is_null()) {
          col.validity[i] = 0;
          col.b8[i] = 0;
        } else {
          col.b8[i] = v.AsBool() ? 1 : 0;
        }
      }
      break;
    case ColumnKind::kString: {
      col.dict = std::make_shared<StringDict>();
      col.codes.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][c];
        if (v.is_null()) {
          col.validity[i] = 0;
          col.codes[i] = 0;
        } else {
          col.codes[i] = col.dict->Intern(v.AsStringUnchecked());
        }
      }
      break;
    }
    case ColumnKind::kValues:
      col.values.reserve(n);
      for (size_t i = 0; i < n; ++i) col.values.push_back(rows[i][c]);
      break;
  }
}

ColumnBatch BatchFromRows(const Row* rows, size_t n, size_t num_columns) {
  ColumnBatch batch;
  batch.num_rows = n;
  batch.columns.resize(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    FillColumn(rows, n, c, &batch.columns[c]);
  }
  batch.row_sizes.resize(n);
  for (size_t i = 0; i < n; ++i) batch.row_sizes[i] = RowSizeBytes(rows[i]);
  return batch;
}

}  // namespace

std::vector<ColumnBatch> BatchesFromRows(const std::vector<Row>& rows,
                                         size_t num_columns,
                                         size_t max_batch_size) {
  std::vector<ColumnBatch> batches;
  batches.reserve(rows.size() / max_batch_size + 1);
  for (size_t start = 0; start < rows.size(); start += max_batch_size) {
    const size_t n = std::min(max_batch_size, rows.size() - start);
    batches.push_back(BatchFromRows(rows.data() + start, n, num_columns));
  }
  return batches;
}

}  // namespace dynopt
