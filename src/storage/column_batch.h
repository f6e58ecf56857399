#ifndef DYNOPT_STORAGE_COLUMN_BATCH_H_
#define DYNOPT_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/value.h"

namespace dynopt {

/// Columnar data layout shared by table storage and the vectorized engine.
///
/// A ColumnBatch holds rows as typed column vectors: int64, double and bool
/// columns are flat arrays; string columns are dictionary-encoded (codes
/// into a StringDict that caches each entry's hash and byte size, so
/// hashing/sizing a string value is an array load instead of an FNV walk).
/// A column's kind is fixed by its schema field's type: every non-NULL
/// value in it has that type (Table::AppendRow rejects any other).
///
/// Every batch carries per-row cost-model byte sizes (`row_sizes`: 8-byte
/// row header + value sizes, i.e. RowSizeBytes of the row), so network and
/// disk metering never re-walk payloads. A `Table` partition is a sequence
/// of immutable batches ("runs"); the executor's batches are the same type.

/// Physical layout of one column vector.
enum class ColumnKind : uint8_t {
  kInt64,   ///< Flat int64 array (+ optional validity).
  kDouble,  ///< Flat double array (+ optional validity).
  kBool,    ///< Flat byte array, 0/1 (+ optional validity).
  kString,  ///< Dictionary codes into a shared StringDict (+ validity).
};

/// The typed layout for values of type `t`. NULL-only data (kNull) gets an
/// int64 column whose every slot is invalid.
ColumnKind TypedKindFor(ValueType t);

/// Append-only string dictionary shared by one or more string columns
/// (std::shared_ptr). Caches each entry's key hash (HashString) and cost-
/// model byte size (16 + length), so kernels never re-walk string payloads.
/// Interning uses an open-addressing index over the cached hashes.
class StringDict {
 public:
  size_t size() const { return entries_.size(); }
  const std::string& entry(uint32_t code) const { return entries_[code]; }
  uint64_t hash(uint32_t code) const { return hashes_[code]; }
  uint64_t size_bytes(uint32_t code) const { return sizes_[code]; }
  /// Every entry and every cached hash, indexed by code.
  const std::vector<std::string>& entries() const { return entries_; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

  /// Code of `s`, inserting it if absent.
  uint32_t Intern(const std::string& s) { return Intern(s, HashString(s)); }

  /// Intern with a precomputed HashString(s) (dictionary merges reuse the
  /// source dictionary's cached hash).
  uint32_t Intern(const std::string& s, uint64_t h) {
    if (slots_.empty()) Rehash(16);
    size_t b = static_cast<size_t>(h) & slot_mask_;
    while (slots_[b] != kEmpty) {
      const uint32_t code = slots_[b];
      if (hashes_[code] == h && entries_[code] == s) return code;
      b = (b + 1) & slot_mask_;
    }
    const uint32_t code = static_cast<uint32_t>(entries_.size());
    entries_.push_back(s);
    hashes_.push_back(h);
    sizes_.push_back(16 + s.size());
    slots_[b] = code;
    if (entries_.size() * 2 >= slots_.size()) Rehash(slots_.size() * 2);
    return code;
  }

  /// Code of `s` if present, kNotFound otherwise (no insertion) — used to
  /// turn an equality predicate against a constant into a code compare.
  static constexpr uint32_t kNotFound = 0xffffffffu;
  uint32_t Find(const std::string& s) const {
    if (slots_.empty()) return kNotFound;
    const uint64_t h = HashString(s);
    size_t b = static_cast<size_t>(h) & slot_mask_;
    while (slots_[b] != kEmpty) {
      const uint32_t code = slots_[b];
      if (hashes_[code] == h && entries_[code] == s) return code;
      b = (b + 1) & slot_mask_;
    }
    return kNotFound;
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  void Rehash(size_t cap) {
    slots_.assign(cap, kEmpty);
    slot_mask_ = cap - 1;
    for (uint32_t code = 0; code < entries_.size(); ++code) {
      size_t b = static_cast<size_t>(hashes_[code]) & slot_mask_;
      while (slots_[b] != kEmpty) b = (b + 1) & slot_mask_;
      slots_[b] = code;
    }
  }

  std::vector<std::string> entries_;
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> sizes_;
  std::vector<uint32_t> slots_;
  size_t slot_mask_ = 0;
};

/// One typed column of a batch. Exactly one payload vector (per `kind`) is
/// populated; `validity` is empty when every row is non-NULL, otherwise one
/// byte per row (1 = valid).
struct ColumnVector {
  ColumnKind kind = ColumnKind::kInt64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> b8;
  std::vector<uint32_t> codes;
  std::shared_ptr<StringDict> dict;
  std::vector<uint8_t> validity;

  size_t size() const {
    switch (kind) {
      case ColumnKind::kInt64:
        return i64.size();
      case ColumnKind::kDouble:
        return f64.size();
      case ColumnKind::kBool:
        return b8.size();
      case ColumnKind::kString:
        return codes.size();
    }
    return 0;
  }

  bool IsNullAt(size_t i) const {
    return !validity.empty() && validity[i] == 0;
  }

  /// Type of row i's value (kNull for NULL).
  ValueType TypeAt(size_t i) const {
    if (IsNullAt(i)) return ValueType::kNull;
    switch (kind) {
      case ColumnKind::kInt64:
        return ValueType::kInt64;
      case ColumnKind::kDouble:
        return ValueType::kDouble;
      case ColumnKind::kBool:
        return ValueType::kBool;
      case ColumnKind::kString:
        return ValueType::kString;
    }
    return ValueType::kNull;
  }

  /// Materializes row i as a Value (conversion boundary / rare fallbacks;
  /// hot kernels use the typed arrays directly).
  Value ValueAt(size_t i) const {
    if (IsNullAt(i)) return Value::Null();
    switch (kind) {
      case ColumnKind::kInt64:
        return Value(i64[i]);
      case ColumnKind::kDouble:
        return Value(f64[i]);
      case ColumnKind::kBool:
        return Value(b8[i] != 0);
      case ColumnKind::kString:
        return Value(dict->entry(codes[i]));
    }
    return Value::Null();
  }

  /// Cost-model byte size of row i's value; identical to
  /// ValueAt(i).SizeBytes().
  uint64_t SizeAt(size_t i) const {
    if (IsNullAt(i)) return 1;
    switch (kind) {
      case ColumnKind::kInt64:
      case ColumnKind::kDouble:
        return 8;
      case ColumnKind::kBool:
        return 1;
      case ColumnKind::kString:
        return dict->size_bytes(codes[i]);
    }
    return 1;
  }

  /// Appends one value: NULL into validity, anything else into the typed
  /// payload (strings intern into `dict`, which must be set for kString).
  /// A non-NULL value must have the column's type; Table::AppendRow checks
  /// that before appending. The load path of table storage and of the DRB
  /// read-back (BatchesFromRows).
  void Append(const Value& v);

  /// Rows [begin, begin + n) as a fresh column: typed payloads and validity
  /// are range copies; string columns share this column's dictionary.
  ColumnVector Slice(size_t begin, size_t n) const;
};

/// A horizontal slice of rows: `num_rows` rows across `columns.size()`
/// column vectors, plus each row's cost-model byte size (8-byte row header
/// + value sizes), always set when the batch is created.
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnVector> columns;
  std::vector<uint64_t> row_sizes;

  Row RowAt(size_t i) const {
    Row row;
    row.reserve(columns.size());
    for (const ColumnVector& col : columns) row.push_back(col.ValueAt(i));
    return row;
  }
};

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_COLUMN_BATCH_H_
