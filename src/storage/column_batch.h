#ifndef DYNOPT_STORAGE_COLUMN_BATCH_H_
#define DYNOPT_STORAGE_COLUMN_BATCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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
///
/// Every payload, validity mask and row-size array is a SharedBuffer: an
/// immutable, reference-counted block viewed through an offset and a
/// length. Copying a column or slicing it shares the block, so a scan's
/// slice borrows the stored run and a temp table keeps the very buffers a
/// job wrote. Writes copy on write, as StringDict's interning does.

/// A reference-counted array of trivially copyable elements, viewed through
/// an offset and a length. Copies and Slice() share the elements (no
/// allocation); reads go through const accessors only, so a read never
/// copies. A write (resize, push_back, assign, reserve, mutable_data)
/// first copies the viewed elements into a fresh block when this handle is
/// not the block's only holder or views it from an offset — the rule
/// StringDict follows before its first mutating intern. Only a batch's
/// owner writes it, and a block with one reference has no other holder that
/// could copy it meanwhile, so the check is safe across threads. A fresh
/// block is one allocation: refcount, capacity and elements. Growing leaves
/// the new elements uninitialized unless a fill value is given — every
/// writer writes each element it sizes.
template <typename T>
class SharedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "SharedBuffer holds trivially copyable elements");

 public:
  SharedBuffer() = default;
  SharedBuffer(const SharedBuffer& other)
      : block_(other.block_), data_(other.data_), size_(other.size_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  SharedBuffer(SharedBuffer&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  SharedBuffer& operator=(SharedBuffer other) noexcept {
    std::swap(block_, other.block_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~SharedBuffer() { Drop(); }

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  /// Elements [begin, begin + n), sharing this buffer's block.
  SharedBuffer Slice(size_t begin, size_t n) const {
    SharedBuffer out;
    if (n == 0) return out;
    out.block_ = block_;
    out.data_ = data_ + begin;
    out.size_ = n;
    block_->refs.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  /// The elements, writable (copied first when shared or offset).
  T* mutable_data() {
    if (size_ > 0 && !Writable(size_)) Reallocate(size_);
    return data_;
  }
  /// Makes room to write up to `n` elements without another allocation.
  void reserve(size_t n) {
    if (n > 0 && !Writable(std::max(n, size_))) Reallocate(std::max(n, size_));
  }
  /// Sets the length to `n`; new elements are uninitialized.
  void resize(size_t n) {
    if (n > size_ && !Writable(n)) Reallocate(std::max(n, 2 * size_));
    size_ = n;
  }
  /// Sets the length to `n`, filling new elements with `value`.
  void resize(size_t n, T value) {
    const size_t old = size_;
    resize(n);
    if (n > old) std::fill(data_ + old, data_ + n, value);
  }
  /// `n` copies of `value`.
  void assign(size_t n, T value) {
    if (!Writable(n)) {
      Drop();
      if (n > 0) Reallocate(n);
    }
    std::fill_n(data_, n, value);
    size_ = n;
  }
  void push_back(T value) {
    if (!Writable(size_ + 1)) Reallocate(std::max<size_t>(16, 2 * size_));
    data_[size_++] = value;
  }
  void clear() { Drop(); }

 private:
  struct Block {
    explicit Block(size_t cap) : refs(1), capacity(cap) {}
    std::atomic<size_t> refs;
    size_t capacity;
  };
  static_assert(sizeof(Block) % alignof(T) == 0, "elements follow the block");

  static T* Elements(Block* block) { return reinterpret_cast<T*>(block + 1); }

  /// This handle is the block's only holder, views it from its first
  /// element, and the block holds at least `n` elements.
  bool Writable(size_t n) const {
    return block_ != nullptr && data_ == Elements(block_) &&
           n <= block_->capacity &&
           block_->refs.load(std::memory_order_acquire) == 1;
  }

  /// Moves the viewed elements into a fresh, unshared block of `capacity`
  /// (at least size_) elements.
  void Reallocate(size_t capacity) {
    void* mem = ::operator new(sizeof(Block) + capacity * sizeof(T));
    Block* fresh = new (mem) Block(capacity);
    T* elements = Elements(fresh);
    if (size_ > 0) std::memcpy(elements, data_, size_ * sizeof(T));
    const size_t size = size_;
    Drop();
    block_ = fresh;
    data_ = elements;
    size_ = size;
  }

  /// Releases this handle's reference, leaving it empty.
  void Drop() {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block_->~Block();
      ::operator delete(block_);
    }
    block_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

  Block* block_ = nullptr;
  T* data_ = nullptr;
  size_t size_ = 0;
};

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
  uint32_t Intern(std::string_view s) { return Intern(s, HashString(s)); }

  /// Intern with a precomputed HashString(s) (dictionary merges reuse the
  /// source dictionary's cached hash).
  uint32_t Intern(std::string_view s, uint64_t h) {
    if (slots_.empty()) Rehash(16);
    size_t b = static_cast<size_t>(h) & slot_mask_;
    while (slots_[b] != kEmpty) {
      const uint32_t code = slots_[b];
      if (hashes_[code] == h && entries_[code] == s) return code;
      b = (b + 1) & slot_mask_;
    }
    const uint32_t code = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back(s);
    hashes_.push_back(h);
    sizes_.push_back(16 + s.size());
    slots_[b] = code;
    if (entries_.size() * 2 >= slots_.size()) Rehash(slots_.size() * 2);
    return code;
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

/// One typed column of a batch. Exactly one payload buffer (per `kind`) is
/// populated; `validity` is empty when every row is non-NULL, otherwise one
/// byte per row (1 = valid). Copies share the buffers (see SharedBuffer).
struct ColumnVector {
  ColumnKind kind = ColumnKind::kInt64;
  SharedBuffer<int64_t> i64;
  SharedBuffer<double> f64;
  SharedBuffer<uint8_t> b8;
  SharedBuffer<uint32_t> codes;
  std::shared_ptr<StringDict> dict;
  SharedBuffer<uint8_t> validity;

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

  /// Appends one value: NULL into validity, anything else into the typed
  /// payload (strings intern into `dict`, which must be set for kString).
  /// A non-NULL value must have the column's type; Table::AppendRow checks
  /// that before appending. The load path of table storage.
  void Append(const Value& v);

  /// Rows [begin, begin + n) as a column that borrows this one's payload,
  /// validity and dictionary: no element is copied.
  ColumnVector Slice(size_t begin, size_t n) const;

  /// Makes room for `n` rows of the `kind` payload (a writer that knows how
  /// many rows it will append allocates once).
  void Reserve(size_t n);
};

/// A horizontal slice of rows: `num_rows` rows across `columns.size()`
/// column vectors, plus each row's cost-model byte size (8-byte row header
/// + value sizes), always set when the batch is created.
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnVector> columns;
  SharedBuffer<uint64_t> row_sizes;

  Row RowAt(size_t i) const {
    Row row;
    row.reserve(columns.size());
    for (const ColumnVector& col : columns) row.push_back(col.ValueAt(i));
    return row;
  }
};

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_COLUMN_BATCH_H_
