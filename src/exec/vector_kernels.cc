#include "exec/vector_kernels.h"

#include <algorithm>

#include "plan/udf.h"

namespace dynopt {

namespace {

constexpr uint64_t kNullValueHash = 0x9ae16a3b2f90404fULL;

/// Combines one column's per-row value hashes into the accumulator `out`
/// (column-at-a-time leg of HashRowKey), recording NULLs.
void CombineColumnHash(const ColumnVector& col, size_t n, uint64_t* out,
                       uint8_t* key_null) {
  const bool nullable = !col.validity.empty();
  const uint8_t* valid = col.validity.data();
  switch (col.kind) {
    case ColumnKind::kInt64: {
      const int64_t* v = col.i64.data();
      if (!nullable) {
        for (size_t i = 0; i < n; ++i) {
          out[i] = HashCombine(out[i], Mix64(static_cast<uint64_t>(v[i])));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (valid[i]) {
            out[i] = HashCombine(out[i], Mix64(static_cast<uint64_t>(v[i])));
          } else {
            out[i] = HashCombine(out[i], kNullValueHash);
            key_null[i] = 1;
          }
        }
      }
      break;
    }
    case ColumnKind::kDouble: {
      const double* v = col.f64.data();
      for (size_t i = 0; i < n; ++i) {
        if (nullable && !valid[i]) {
          out[i] = HashCombine(out[i], kNullValueHash);
          key_null[i] = 1;
        } else {
          out[i] = HashCombine(out[i], HashDouble(v[i]));
        }
      }
      break;
    }
    case ColumnKind::kBool: {
      const uint8_t* v = col.b8.data();
      for (size_t i = 0; i < n; ++i) {
        if (nullable && !valid[i]) {
          out[i] = HashCombine(out[i], kNullValueHash);
          key_null[i] = 1;
        } else {
          out[i] = HashCombine(out[i], Mix64(v[i] != 0 ? 1 : 0));
        }
      }
      break;
    }
    case ColumnKind::kString: {
      const uint32_t* codes = col.codes.data();
      const StringDict* dict = col.dict.get();
      for (size_t i = 0; i < n; ++i) {
        if (nullable && !valid[i]) {
          out[i] = HashCombine(out[i], kNullValueHash);
          key_null[i] = 1;
        } else {
          out[i] = HashCombine(out[i], dict->hash(codes[i]));
        }
      }
      break;
    }
  }
}

void MarkColumnNulls(const ColumnVector& col, size_t n, uint8_t* key_null) {
  if (col.validity.empty()) return;
  const uint8_t* valid = col.validity.data();
  for (size_t i = 0; i < n; ++i) {
    if (!valid[i]) key_null[i] = 1;
  }
}

/// Numeric view of row i under Value::Compare's coercion (int64 and bool
/// widen to double). False when the value is non-numeric or NULL.
inline bool NumericAt(const ColumnVector& col, size_t i, double* out) {
  if (col.IsNullAt(i)) return false;
  switch (col.kind) {
    case ColumnKind::kInt64:
      *out = static_cast<double>(col.i64[i]);
      return true;
    case ColumnKind::kDouble:
      *out = col.f64[i];
      return true;
    case ColumnKind::kBool:
      *out = col.b8[i] != 0 ? 1.0 : 0.0;
      return true;
    case ColumnKind::kString:
      return false;
  }
  return false;
}

/// dst[k] = src[sel[k]] for k in [0, n), or a range copy when `sel` is null.
template <typename T>
void GatherInto(T* dst, const T* src, const uint32_t* sel, size_t n) {
  if (sel == nullptr) {
    std::copy(src, src + n, dst);
  } else {
    for (size_t k = 0; k < n; ++k) dst[k] = src[sel[k]];
  }
}

/// Adds the cost-model size of rows [begin, begin + n) of `col` to
/// out[0..n): 8 bytes per int64 or double, 1 per bool, a string's
/// dictionary size, 1 per NULL — RowSizeBytes' per-value term.
void AddValueSizes(const ColumnVector& col, size_t begin, size_t n,
                   uint64_t* out) {
  const bool nullable = !col.validity.empty();
  const uint8_t* valid = col.validity.data() + (nullable ? begin : 0);
  switch (col.kind) {
    case ColumnKind::kInt64:
    case ColumnKind::kDouble:
      if (!nullable) {
        for (size_t i = 0; i < n; ++i) out[i] += 8;
      } else {
        for (size_t i = 0; i < n; ++i) out[i] += valid[i] ? 8 : 1;
      }
      break;
    case ColumnKind::kBool:
      // NULL and bool both cost 1 byte.
      for (size_t i = 0; i < n; ++i) out[i] += 1;
      break;
    case ColumnKind::kString: {
      const uint32_t* codes = col.codes.data() + begin;
      const StringDict* dict = col.dict.get();
      if (!nullable) {
        for (size_t i = 0; i < n; ++i) out[i] += dict->size_bytes(codes[i]);
      } else {
        for (size_t i = 0; i < n; ++i) {
          out[i] += valid[i] ? dict->size_bytes(codes[i]) : 1;
        }
      }
      break;
    }
  }
}

/// Sets each row size of `batch` from its values: 8 bytes of header plus
/// every column's value size, as RowSizeBytes.
void SizeRowsFromValues(ColumnBatch* batch) {
  batch->row_sizes.assign(batch->num_rows, 8);
  uint64_t* sizes = batch->row_sizes.mutable_data();
  for (const ColumnVector& col : batch->columns) {
    AddValueSizes(col, 0, batch->num_rows, sizes);
  }
}

/// True when `keep` lists every one of `num_columns` slots in order: the
/// kept rows are whole, and their cached sizes still hold.
bool KeepsWholeRows(const int* keep, size_t num_keep, size_t num_columns) {
  if (num_keep != num_columns) return false;
  for (size_t k = 0; k < num_keep; ++k) {
    if (keep[k] != static_cast<int>(k)) return false;
  }
  return true;
}

/// Writes the validity of src[sel[0..n)] into rows [old_rows, old_rows + n)
/// of dst (which already has `old_rows` rows), materializing dst's mask
/// only once a NULL-capable source arrives.
void AppendValidity(ColumnVector* dst, size_t old_rows,
                    const ColumnVector& src, const uint32_t* sel, size_t n) {
  if (src.validity.empty()) {
    if (!dst->validity.empty()) dst->validity.resize(old_rows + n, 1);
    return;
  }
  if (dst->validity.empty()) dst->validity.assign(old_rows, 1);
  dst->validity.resize(old_rows + n);
  GatherInto(dst->validity.mutable_data() + old_rows, src.validity.data(), sel,
             n);
}

/// Sets `col`'s payload (per its kind) to `n` rows; new rows are left
/// uninitialized for a gather to write.
void ResizePayload(ColumnVector* col, size_t n) {
  switch (col->kind) {
    case ColumnKind::kInt64:
      col->i64.resize(n);
      return;
    case ColumnKind::kDouble:
      col->f64.resize(n);
      return;
    case ColumnKind::kBool:
      col->b8.resize(n);
      return;
    case ColumnKind::kString:
      col->codes.resize(n);
      return;
  }
}

/// Writes src[sel[0..n)] (rows [0, n) when `sel` is null) into rows
/// [off, off + n) of `dst`'s payload, which already holds them and has
/// src's kind. A string source on another dictionary interns through its
/// cached hashes into dst's, which is cloned before the first mutating
/// intern while shared (an adopted dictionary is still its source batch's,
/// and in a parallel join readable from other workers); NULL rows get code
/// 0. Validity is the caller's.
void GatherColumn(ColumnVector* dst, size_t off, const ColumnVector& src,
                  const uint32_t* sel, size_t n) {
  switch (dst->kind) {
    case ColumnKind::kInt64:
      GatherInto(dst->i64.mutable_data() + off, src.i64.data(), sel, n);
      return;
    case ColumnKind::kDouble:
      GatherInto(dst->f64.mutable_data() + off, src.f64.data(), sel, n);
      return;
    case ColumnKind::kBool:
      GatherInto(dst->b8.mutable_data() + off, src.b8.data(), sel, n);
      return;
    case ColumnKind::kString:
      break;
  }
  uint32_t* codes = dst->codes.mutable_data() + off;
  if (dst->dict.get() == src.dict.get()) {
    GatherInto(codes, src.codes.data(), sel, n);
    return;
  }
  // A unique reference cannot gain new owners mid-gather, so use_count()
  // == 1 is a safe exclusivity check.
  if (dst->dict.use_count() > 1) {
    dst->dict = std::make_shared<StringDict>(*dst->dict);
  }
  for (size_t k = 0; k < n; ++k) {
    const size_t i = sel != nullptr ? sel[k] : k;
    codes[k] = src.IsNullAt(i)
                   ? 0
                   : dst->dict->Intern(src.dict->entry(src.codes[i]),
                                       src.dict->hash(src.codes[i]));
  }
}

}  // namespace

void HashKeyColumns(const ColumnBatch& batch, const int* keys,
                    size_t num_keys, uint64_t* out, uint8_t* key_null) {
  const size_t n = batch.num_rows;
  for (size_t i = 0; i < n; ++i) out[i] = 0x2545f4914f6cdd1dULL;
  for (size_t k = 0; k < num_keys; ++k) {
    CombineColumnHash(batch.columns[static_cast<size_t>(keys[k])], n, out,
                      key_null);
  }
}

void AnyKeyNull(const ColumnBatch& batch, const int* keys, size_t num_keys,
                uint8_t* key_null) {
  for (size_t k = 0; k < num_keys; ++k) {
    MarkColumnNulls(batch.columns[static_cast<size_t>(keys[k])],
                    batch.num_rows, key_null);
  }
}

bool ColumnValueEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                      size_t j) {
  const bool an = a.IsNullAt(i);
  const bool bn = b.IsNullAt(j);
  if (an || bn) return an && bn;
  double da, db;
  if (NumericAt(a, i, &da) && NumericAt(b, j, &db)) {
    // Value::Compare coerces every numeric pair (even int64 vs int64) to
    // double; equality must mirror that exactly.
    return da == db;
  }
  if (a.kind != ColumnKind::kString || b.kind != ColumnKind::kString) {
    return false;  // A string never equals a number.
  }
  if (a.dict.get() == b.dict.get()) return a.codes[i] == b.codes[j];
  return a.dict->entry(a.codes[i]) == b.dict->entry(b.codes[j]);
}

ColumnBatch SliceBatch(const ColumnBatch& src, size_t begin, size_t n,
                       const int* keep, size_t num_keep) {
  ColumnBatch out;
  out.num_rows = n;
  out.columns.reserve(num_keep);
  for (size_t k = 0; k < num_keep; ++k) {
    out.columns.push_back(
        src.columns[static_cast<size_t>(keep[k])].Slice(begin, n));
  }
  if (KeepsWholeRows(keep, num_keep, src.columns.size())) {
    out.row_sizes = src.row_sizes.Slice(begin, n);
  } else {
    SizeRowsFromValues(&out);
  }
  return out;
}

void AddColumnToStats(const ColumnVector& col, const uint32_t* sel, size_t n,
                      ColumnStatsBuilder* out) {
  const ColumnRows rows{col.validity.empty() ? nullptr : col.validity.data(),
                        sel, n};
  switch (col.kind) {
    case ColumnKind::kInt64:
      out->AddInt64s(col.i64.data(), rows);
      return;
    case ColumnKind::kDouble:
      out->AddDoubles(col.f64.data(), rows);
      return;
    case ColumnKind::kBool:
      out->AddBools(col.b8.data(), rows);
      return;
    case ColumnKind::kString:
      out->AddStrings(col.codes.data(), col.dict->entries().data(),
                      col.dict->hashes().data(), rows);
      return;
  }
}

void AddBatchToStats(const ColumnBatch& batch, TableStatsBuilder* builder) {
  uint64_t bytes = 0;
  for (uint64_t s : batch.row_sizes) bytes += s;
  builder->AddRows(batch.num_rows, bytes);
  const std::vector<int>& slots = builder->column_indices();
  for (size_t i = 0; i < slots.size(); ++i) {
    AddColumnToStats(batch.columns[static_cast<size_t>(slots[i])], nullptr,
                     batch.num_rows, &builder->column(i));
  }
}

void AddColumnToSketch(const ColumnBatch& batch, int column,
                       JoinKeySketch* sketch) {
  const size_t n = batch.num_rows;
  std::vector<uint64_t> hashes(n);
  std::vector<uint8_t> key_null(n, 0);
  HashKeyColumns(batch, &column, 1, hashes.data(), key_null.data());
  sketch->rows += n;
  for (size_t i = 0; i < n; ++i) {
    if (key_null[i]) {
      ++sketch->null_keys;
      continue;
    }
    sketch->bloom.Insert(hashes[i]);
    sketch->agms.Update(hashes[i]);
  }
}

ColumnBatch GatherViews(const std::vector<BatchView>& views, const int* keep,
                        size_t num_keep) {
  ColumnBatch out;
  if (views.empty()) return out;
  size_t total = 0;
  for (const BatchView& v : views) total += v.num_rows;
  const size_t num_src_cols = views[0].batch->columns.size();
  const size_t num_cols = keep != nullptr ? num_keep : num_src_cols;
  out.num_rows = total;
  out.columns.resize(num_cols);
  for (size_t k = 0; k < num_cols; ++k) {
    const size_t c = keep != nullptr ? static_cast<size_t>(keep[k]) : k;
    const ColumnVector& first = views[0].batch->columns[c];
    ColumnVector& d = out.columns[k];
    d.kind = first.kind;
    if (d.kind == ColumnKind::kString) d.dict = first.dict;
    // Every row of the payload is written below; only the validity mask,
    // which NULL-free sources leave alone, starts filled.
    ResizePayload(&d, total);
    for (const BatchView& v : views) {
      if (!v.batch->columns[c].validity.empty()) {
        d.validity.assign(total, 1);
        break;
      }
    }
    size_t off = 0;
    for (const BatchView& v : views) {
      const ColumnVector& s = v.batch->columns[c];
      GatherColumn(&d, off, s, v.sel, v.num_rows);
      if (!s.validity.empty()) {
        GatherInto(d.validity.mutable_data() + off, s.validity.data(), v.sel,
                   v.num_rows);
      }
      off += v.num_rows;
    }
  }
  if (keep != nullptr && !KeepsWholeRows(keep, num_keep, num_src_cols)) {
    // A projection: the gathered rows are sized from their kept values.
    SizeRowsFromValues(&out);
    return out;
  }
  out.row_sizes.resize(total);
  uint64_t* sizes = out.row_sizes.mutable_data();
  size_t off = 0;
  for (const BatchView& v : views) {
    GatherInto(sizes + off, v.batch->row_sizes.data(), v.sel, v.num_rows);
    off += v.num_rows;
  }
  return out;
}

void BatchSink::EnsureOpen() {
  if (open_) return;
  cur_ = ColumnBatch();
  cur_.columns.resize(columns_->size());
  cur_.row_sizes.reserve(ReservedRows());
  open_ = true;
}

void BatchSink::CloseIfFull() {
  if (open_ && cur_.num_rows >= capacity_) {
    out_->push_back(std::move(cur_));
    open_ = false;
  }
}

void BatchSink::AppendJoinGather(const ColumnBatch& build,
                                 const uint32_t* bsel,
                                 const ColumnBatch& probe,
                                 const uint32_t* psel, size_t n) {
  const size_t num_columns = columns_->size();
  size_t off = 0;
  while (off < n) {
    EnsureOpen();
    const size_t old_rows = cur_.num_rows;
    const size_t m = std::min(capacity_ - old_rows, n - off);
    cur_.row_sizes.resize(old_rows + m, 8);  // Row header.
    uint64_t* sizes = cur_.row_sizes.mutable_data() + old_rows;
    for (size_t c = 0; c < num_columns; ++c) {
      const SinkColumn& from = (*columns_)[c];
      const bool from_build = from.side == SinkColumn::kBuild;
      const ColumnVector& src =
          (from_build ? build : probe).columns[static_cast<size_t>(from.slot)];
      ColumnVector& dst = cur_.columns[c];
      if (old_rows == 0) {
        // A fresh batch: adopt the source's kind and dictionary, and size
        // the column for a full batch once.
        dst.kind = src.kind;
        if (src.kind == ColumnKind::kString) dst.dict = src.dict;
        dst.Reserve(ReservedRows());
      }
      const uint32_t* sel = (from_build ? bsel : psel) + off;
      ResizePayload(&dst, old_rows + m);
      GatherColumn(&dst, old_rows, src, sel, m);
      AppendValidity(&dst, old_rows, src, sel, m);
      AddValueSizes(dst, old_rows, m, sizes);
    }
    cur_.num_rows += m;
    off += m;
    CloseIfFull();
  }
}

void BatchSink::Flush() {
  if (open_ && cur_.num_rows > 0) {
    out_->push_back(std::move(cur_));
  }
  open_ = false;
}

// --- VecPredicate --------------------------------------------------------

namespace {
// SQL truth values, ordered FALSE < NULL < TRUE so that Kleene AND is the
// minimum, OR the maximum and NOT the reflection kTriTrue - x.
constexpr uint8_t kTriFalse = 0;
constexpr uint8_t kTriNull = 1;
constexpr uint8_t kTriTrue = 2;

/// EvalBool-style truthiness as tri-state: NULL stays unknown, and only
/// EvalBools, the filter's reading, turns it into false.
uint8_t TruthyTri(const Value& v) {
  if (v.is_null()) return kTriNull;
  switch (v.type()) {
    case ValueType::kBool:
      return v.AsBool() ? kTriTrue : kTriFalse;
    case ValueType::kInt64:
      return v.AsInt64() != 0 ? kTriTrue : kTriFalse;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0 ? kTriTrue : kTriFalse;
    default:
      return kTriFalse;
  }
}

inline bool ApplyCmp(int c, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Value::Compare's three-way double compare: NaN compares equal to
/// everything.
inline int CompareDoubles(double a, double b) {
  return static_cast<int>(a > b) - static_cast<int>(a < b);
}

}  // namespace

struct VecPredicate::Node {
  enum class Op { kColumn, kConst, kCmp, kBetween, kAnd, kOr, kNot, kUdf };
  Op op;
  int slot = -1;                   // kColumn
  Value constant;                  // kConst
  CompareOp cmp = CompareOp::kEq;  // kCmp
  const UdfFn* fn = nullptr;       // kUdf
  std::vector<std::unique_ptr<Node>> children;
};

namespace {

using PNode = VecPredicate::Node;

/// A comparison/UDF operand after evaluation: a borrowed column, a
/// constant, or per-row materialized Values (UDF results and nested
/// predicate results).
struct ScalarOperand {
  const ColumnVector* col = nullptr;
  const Value* constant = nullptr;
  std::vector<Value> owned;

  bool IsNullAt(size_t i) const {
    if (col != nullptr) return col->IsNullAt(i);
    if (constant != nullptr) return constant->is_null();
    return owned[i].is_null();
  }
  Value At(size_t i) const {
    if (col != nullptr) return col->ValueAt(i);
    if (constant != nullptr) return *constant;
    return owned[i];
  }
};

void EvalTri(const PNode& node, const ColumnBatch& batch,
             std::vector<uint8_t>* out);

void EvalScalar(const PNode& node, const ColumnBatch& batch,
                ScalarOperand* out) {
  switch (node.op) {
    case PNode::Op::kColumn:
      out->col = &batch.columns[static_cast<size_t>(node.slot)];
      return;
    case PNode::Op::kConst:
      out->constant = &node.constant;
      return;
    case PNode::Op::kUdf: {
      const size_t n = batch.num_rows;
      std::vector<ScalarOperand> args(node.children.size());
      for (size_t a = 0; a < node.children.size(); ++a) {
        EvalScalar(*node.children[a], batch, &args[a]);
      }
      out->owned.reserve(n);
      std::vector<Value> argv(node.children.size());
      for (size_t i = 0; i < n; ++i) {
        for (size_t a = 0; a < args.size(); ++a) argv[a] = args[a].At(i);
        out->owned.push_back((*node.fn)(argv));
      }
      return;
    }
    default: {
      // Predicate-valued operand (nested comparison/boolean): evaluate
      // tri-state, materialize as bool/NULL Values.
      std::vector<uint8_t> tri;
      EvalTri(node, batch, &tri);
      out->owned.reserve(tri.size());
      for (uint8_t t : tri) {
        out->owned.push_back(t == kTriNull ? Value::Null()
                                           : Value(t == kTriTrue));
      }
      return;
    }
  }
}

/// A statically numeric operand read in place: a typed int64, double or
/// bool column where it is stored, or a numeric constant. String columns
/// and non-numeric constants have no such view and take the generic Value
/// path.
struct NumericOperand {
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* b8 = nullptr;
  const uint8_t* validity = nullptr;  ///< Null when the column has none.
  double constant = 0;                ///< When no column pointer is set.
};

bool AsNumeric(const ScalarOperand& op, NumericOperand* out) {
  if (op.constant != nullptr) {
    const Value& v = *op.constant;
    switch (v.type()) {
      case ValueType::kInt64:
        out->constant = static_cast<double>(v.AsInt64());
        return true;
      case ValueType::kDouble:
        out->constant = v.AsDouble();
        return true;
      case ValueType::kBool:
        out->constant = v.AsBool() ? 1.0 : 0.0;
        return true;
      default:
        return false;
    }
  }
  if (op.col == nullptr) return false;
  const ColumnVector& col = *op.col;
  switch (col.kind) {
    case ColumnKind::kInt64:
      out->i64 = col.i64.data();
      break;
    case ColumnKind::kDouble:
      out->f64 = col.f64.data();
      break;
    case ColumnKind::kBool:
      out->b8 = col.b8.data();
      break;
    default:
      return false;
  }
  if (!col.validity.empty()) out->validity = col.validity.data();
  return true;
}

/// Calls `f` with a row -> double reader specialized to `op`'s layout, so
/// a comparison loop compiles once per pair of layouts.
template <typename F>
void WithReader(const NumericOperand& op, F&& f) {
  if (op.i64 != nullptr) {
    f([p = op.i64](size_t i) { return static_cast<double>(p[i]); });
  } else if (op.f64 != nullptr) {
    f([p = op.f64](size_t i) { return p[i]; });
  } else if (op.b8 != nullptr) {
    f([p = op.b8](size_t i) { return p[i] != 0 ? 1.0 : 0.0; });
  } else {
    f([c = op.constant](size_t) { return c; });
  }
}

/// Comparison of two operands into a tri-state mask; NULL operands yield
/// kTriNull (BoundComparison semantics).
void CompareOperands(const ScalarOperand& l, const ScalarOperand& r,
                     CompareOp op, size_t n, std::vector<uint8_t>* out) {
  out->resize(n);
  // Fast path 1: both sides statically numeric -> double compare over the
  // stored columns (Value::Compare coerces every numeric pair to double).
  NumericOperand ln, rn;
  if (AsNumeric(l, &ln) && AsNumeric(r, &rn)) {
    uint8_t tri_of[3];  // Indexed by CompareDoubles + 1.
    for (int c = -1; c <= 1; ++c) {
      tri_of[c + 1] = ApplyCmp(c, op) ? kTriTrue : kTriFalse;
    }
    uint8_t* o = out->data();
    WithReader(ln, [&](auto lhs) {
      WithReader(rn, [&](auto rhs) {
        for (size_t i = 0; i < n; ++i) {
          o[i] = tri_of[CompareDoubles(lhs(i), rhs(i)) + 1];
        }
      });
    });
    for (const uint8_t* valid : {ln.validity, rn.validity}) {
      if (valid == nullptr) continue;
      for (size_t i = 0; i < n; ++i) {
        if (valid[i] == 0) o[i] = kTriNull;
      }
    }
    return;
  }
  // Fast path 2: dictionary string column vs string constant -> memoize the
  // comparison per dictionary code (one compare per distinct value). A
  // dictionary larger than the batch (a table's stored dictionary) is
  // compared row by row instead, so the cost stays bounded by the batch.
  if (l.col != nullptr && l.col->kind == ColumnKind::kString &&
      r.constant != nullptr && r.constant->type() == ValueType::kString) {
    const ColumnVector& col = *l.col;
    const StringDict& dict = *col.dict;
    const std::string& c = r.constant->AsStringUnchecked();
    auto compare_code = [&](uint32_t code) -> uint8_t {
      const int cmp = dict.entry(code).compare(c);
      return ApplyCmp(cmp < 0 ? -1 : (cmp > 0 ? 1 : 0), op) ? kTriTrue
                                                            : kTriFalse;
    };
    const bool nullable = !col.validity.empty();
    if (dict.size() > n) {
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = (nullable && !col.validity[i])
                        ? kTriNull
                        : compare_code(col.codes[i]);
      }
      return;
    }
    std::vector<uint8_t> by_code(dict.size());
    for (uint32_t code = 0; code < dict.size(); ++code) {
      by_code[code] = compare_code(code);
    }
    for (size_t i = 0; i < n; ++i) {
      (*out)[i] = (nullable && !col.validity[i]) ? kTriNull
                                                 : by_code[col.codes[i]];
    }
    return;
  }
  // Generic path: per-row Value comparison (exactly BoundComparison).
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNullAt(i) || r.IsNullAt(i)) {
      (*out)[i] = kTriNull;
      continue;
    }
    (*out)[i] = ApplyCmp(l.At(i).Compare(r.At(i)), op) ? kTriTrue : kTriFalse;
  }
}

void EvalTri(const PNode& node, const ColumnBatch& batch,
             std::vector<uint8_t>* out) {
  const size_t n = batch.num_rows;
  switch (node.op) {
    case PNode::Op::kConst: {
      out->assign(n, TruthyTri(node.constant));
      return;
    }
    case PNode::Op::kColumn: {
      out->resize(n);
      const ColumnVector& col = batch.columns[static_cast<size_t>(node.slot)];
      for (size_t i = 0; i < n; ++i) (*out)[i] = TruthyTri(col.ValueAt(i));
      return;
    }
    case PNode::Op::kCmp: {
      ScalarOperand l, r;
      EvalScalar(*node.children[0], batch, &l);
      EvalScalar(*node.children[1], batch, &r);
      CompareOperands(l, r, node.cmp, n, out);
      return;
    }
    case PNode::Op::kBetween: {
      // v >= lo AND v <= hi through the comparison kernel, so BETWEEN
      // agrees with its expansion and with BoundBetween on every value
      // (NaN compares equal, as in Value::Compare), NULLs under Kleene
      // AND.
      ScalarOperand v, lo, hi;
      EvalScalar(*node.children[0], batch, &v);
      EvalScalar(*node.children[1], batch, &lo);
      EvalScalar(*node.children[2], batch, &hi);
      std::vector<uint8_t> upper;
      CompareOperands(v, lo, CompareOp::kGe, n, out);
      CompareOperands(v, hi, CompareOp::kLe, n, &upper);
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = std::min((*out)[i], upper[i]);
      }
      return;
    }
    case PNode::Op::kAnd:
    case PNode::Op::kOr: {
      const bool is_and = node.op == PNode::Op::kAnd;
      out->assign(n, is_and ? kTriTrue : kTriFalse);
      std::vector<uint8_t> child;
      for (const auto& c : node.children) {
        EvalTri(*c, batch, &child);
        uint8_t* o = out->data();
        if (is_and) {
          for (size_t i = 0; i < n; ++i) o[i] = std::min(o[i], child[i]);
        } else {
          for (size_t i = 0; i < n; ++i) o[i] = std::max(o[i], child[i]);
        }
      }
      return;
    }
    case PNode::Op::kNot: {
      EvalTri(*node.children[0], batch, out);
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = static_cast<uint8_t>(kTriTrue - (*out)[i]);
      }
      return;
    }
    case PNode::Op::kUdf: {
      ScalarOperand v;
      EvalScalar(node, batch, &v);
      out->resize(n);
      for (size_t i = 0; i < n; ++i) (*out)[i] = TruthyTri(v.owned[i]);
      return;
    }
  }
}

Result<std::unique_ptr<PNode>> CompileNode(
    const ExprPtr& expr, const std::vector<std::string>& columns,
    const std::map<std::string, Value>* params, const UdfRegistry* udfs) {
  auto node = std::make_unique<PNode>();
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      const auto& col = static_cast<const ColumnRefExpr&>(*expr);
      // One name lookup per operand at compile time — never in the batch
      // loop (the instrumented counter pins this).
      const int slot = LinearColumnIndex(columns, col.Qualified());
      if (slot < 0) {
        return Status::BindError("unresolved column " + col.Qualified());
      }
      node->op = PNode::Op::kColumn;
      node->slot = slot;
      return node;
    }
    case ExprKind::kLiteral: {
      node->op = PNode::Op::kConst;
      node->constant = static_cast<const LiteralExpr&>(*expr).value();
      return node;
    }
    case ExprKind::kParam: {
      const auto& param = static_cast<const ParamExpr&>(*expr);
      if (params == nullptr) {
        return Status::BindError("no parameters provided for $" +
                                 param.name());
      }
      auto it = params->find(param.name());
      if (it == params->end()) {
        return Status::BindError("unbound parameter $" + param.name());
      }
      node->op = PNode::Op::kConst;
      node->constant = it->second;
      return node;
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(*expr);
      node->op = PNode::Op::kCmp;
      node->cmp = cmp.op();
      DYNOPT_ASSIGN_OR_RETURN(auto l,
                              CompileNode(cmp.left(), columns, params, udfs));
      DYNOPT_ASSIGN_OR_RETURN(auto r,
                              CompileNode(cmp.right(), columns, params, udfs));
      node->children.push_back(std::move(l));
      node->children.push_back(std::move(r));
      return node;
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(*expr);
      node->op = PNode::Op::kBetween;
      for (const ExprPtr& child :
           {between.input(), between.lo(), between.hi()}) {
        DYNOPT_ASSIGN_OR_RETURN(auto c,
                                CompileNode(child, columns, params, udfs));
        node->children.push_back(std::move(c));
      }
      return node;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const std::vector<ExprPtr>& children =
          expr->kind() == ExprKind::kAnd
              ? static_cast<const AndExpr&>(*expr).children()
              : static_cast<const OrExpr&>(*expr).children();
      node->op =
          expr->kind() == ExprKind::kAnd ? PNode::Op::kAnd : PNode::Op::kOr;
      for (const ExprPtr& child : children) {
        DYNOPT_ASSIGN_OR_RETURN(auto c,
                                CompileNode(child, columns, params, udfs));
        node->children.push_back(std::move(c));
      }
      return node;
    }
    case ExprKind::kNot: {
      const auto& not_expr = static_cast<const NotExpr&>(*expr);
      node->op = PNode::Op::kNot;
      DYNOPT_ASSIGN_OR_RETURN(
          auto c, CompileNode(not_expr.child(), columns, params, udfs));
      node->children.push_back(std::move(c));
      return node;
    }
    case ExprKind::kUdfCall: {
      const auto& udf = static_cast<const UdfCallExpr&>(*expr);
      if (udfs == nullptr) {
        return Status::BindError("no UDF registry provided for " + udf.name());
      }
      const UdfFn* fn = udfs->Lookup(udf.name());
      if (fn == nullptr) {
        return Status::BindError("unregistered UDF " + udf.name());
      }
      node->op = PNode::Op::kUdf;
      node->fn = fn;
      for (const ExprPtr& arg : udf.args()) {
        DYNOPT_ASSIGN_OR_RETURN(auto c,
                                CompileNode(arg, columns, params, udfs));
        node->children.push_back(std::move(c));
      }
      return node;
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

VecPredicate::VecPredicate(std::unique_ptr<Node> root)
    : root_(std::move(root)) {}

Result<VecPredicate> VecPredicate::Compile(
    const ExprPtr& expr, const std::vector<std::string>& columns,
    const std::map<std::string, Value>* params, const UdfRegistry* udfs) {
  DYNOPT_ASSIGN_OR_RETURN(auto root, CompileNode(expr, columns, params, udfs));
  return VecPredicate(std::move(root));
}

void VecPredicate::EvalBools(const ColumnBatch& batch,
                             std::vector<uint8_t>* keep) const {
  std::vector<uint8_t> tri;
  EvalTri(*root_, batch, &tri);
  keep->resize(batch.num_rows);
  for (size_t i = 0; i < batch.num_rows; ++i) {
    (*keep)[i] = tri[i] == kTriTrue ? 1 : 0;
  }
}

}  // namespace dynopt
