#include "storage/serde.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string_view>
#include <system_error>

#include "common/hash.h"

namespace dynopt {

namespace {

/// "DRB4": Dynopt Row Batches, format version 4.
constexpr char kMagic[4] = {'D', 'R', 'B', '4'};
/// The magic and the fixed64 payload checksum.
constexpr size_t kHeaderSize = sizeof(kMagic) + 8;

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Appends `n` elements of `data` in host byte order.
template <typename T>
void AppendArray(const T* data, size_t n, std::string* out) {
  if (n > 0) out->append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

void EncodeColumn(const ColumnVector& col, size_t rows, std::string* out) {
  out->push_back(static_cast<char>(col.kind));
  out->push_back(col.validity.empty() ? 0 : 1);
  AppendArray(col.validity.data(), col.validity.empty() ? 0 : rows, out);
  switch (col.kind) {
    case ColumnKind::kInt64:
      AppendArray(col.i64.data(), rows, out);
      return;
    case ColumnKind::kDouble:
      AppendArray(col.f64.data(), rows, out);
      return;
    case ColumnKind::kBool:
      AppendArray(col.b8.data(), rows, out);
      return;
    case ColumnKind::kString:
      for (size_t i = 0; i < rows; ++i) {
        if (col.IsNullAt(i)) continue;
        const std::string& s = col.dict->entry(col.codes[i]);
        AppendVarint(s.size(), out);
        out->append(s);
      }
      return;
  }
}

std::string EncodeBatches(const std::vector<ColumnBatch>& batches) {
  std::string out(kMagic, sizeof(kMagic));
  out.append(8, '\0');  // The checksum, set once the payload is written.
  AppendVarint(batches.size(), &out);
  for (const ColumnBatch& batch : batches) {
    AppendVarint(batch.num_rows, &out);
    AppendVarint(batch.columns.size(), &out);
    for (const ColumnVector& col : batch.columns) {
      EncodeColumn(col, batch.num_rows, &out);
    }
    AppendArray(batch.row_sizes.data(), batch.num_rows, &out);
  }
  uint64_t checksum =
      BatchFileChecksum(out.data() + kHeaderSize, out.size() - kHeaderSize);
  for (size_t i = 0; i < 8; ++i) {
    out[sizeof(kMagic) + i] = static_cast<char>(checksum & 0xff);
    checksum >>= 8;
  }
  return out;
}

Status Corrupt(const char* what) {
  return Status::DataCorruption(std::string("serde: ") + what);
}

/// Bounds-checked reads over a file's payload. No count sizes a buffer
/// before it is checked against the bytes left.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size)
      : pos_(data), end_(data + size) {}

  size_t left() const { return static_cast<size_t>(end_ - pos_); }

  Status Varint(uint64_t* v) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ == end_) return Corrupt("truncated varint");
      const uint8_t byte = static_cast<uint8_t>(*pos_++);
      *v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return Status::OK();
    }
    return Corrupt("varint overflow");
  }

  Status Byte(uint8_t* b) {
    if (pos_ == end_) return Corrupt("truncated batch file");
    *b = static_cast<uint8_t>(*pos_++);
    return Status::OK();
  }

  Status Bytes(uint64_t n, std::string_view* out) {
    if (n > left()) return Corrupt("string past the end");
    *out = std::string_view(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// `n` elements into `out`, sized once and copied in host byte order.
  template <typename T>
  Status Array(size_t n, SharedBuffer<T>* out) {
    if (n > left() / sizeof(T)) return Corrupt("array past the end");
    out->resize(n);
    if (n > 0) std::memcpy(out->mutable_data(), pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return Status::OK();
  }

 private:
  const char* pos_;
  const char* end_;
};

Status DecodeColumn(PayloadReader* in, size_t rows, ColumnVector* col) {
  uint8_t kind = 0, nullable = 0;
  DYNOPT_RETURN_IF_ERROR(in->Byte(&kind));
  DYNOPT_RETURN_IF_ERROR(in->Byte(&nullable));
  if (kind > static_cast<uint8_t>(ColumnKind::kString)) {
    return Corrupt("unknown column kind");
  }
  if (nullable > 1) return Corrupt("bad validity flag");
  col->kind = static_cast<ColumnKind>(kind);
  if (nullable == 1) DYNOPT_RETURN_IF_ERROR(in->Array(rows, &col->validity));
  switch (col->kind) {
    case ColumnKind::kInt64:
      return in->Array(rows, &col->i64);
    case ColumnKind::kDouble:
      return in->Array(rows, &col->f64);
    case ColumnKind::kBool:
      return in->Array(rows, &col->b8);
    case ColumnKind::kString:
      break;
  }
  col->dict = std::make_shared<StringDict>();
  col->codes.resize(rows);
  uint32_t* codes = col->codes.mutable_data();
  for (size_t i = 0; i < rows; ++i) {
    codes[i] = 0;
    if (col->IsNullAt(i)) continue;
    uint64_t len = 0;
    std::string_view s;
    DYNOPT_RETURN_IF_ERROR(in->Varint(&len));
    DYNOPT_RETURN_IF_ERROR(in->Bytes(len, &s));
    codes[i] = col->dict->Intern(s);
  }
  return Status::OK();
}

Result<std::vector<ColumnBatch>> DecodeBatches(const char* data, size_t size) {
  if (size < kHeaderSize || std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad batch file magic");
  }
  uint64_t checksum = 0;
  for (size_t i = 0; i < 8; ++i) {
    checksum |= static_cast<uint64_t>(
                    static_cast<uint8_t>(data[sizeof(kMagic) + i]))
                << (8 * i);
  }
  if (BatchFileChecksum(data + kHeaderSize, size - kHeaderSize) != checksum) {
    return Corrupt("batch file checksum mismatch");
  }
  PayloadReader in(data + kHeaderSize, size - kHeaderSize);
  uint64_t num_batches = 0;
  DYNOPT_RETURN_IF_ERROR(in.Varint(&num_batches));
  // Every batch takes at least its two counts, every column its kind and
  // validity flag, and every row its 8-byte size.
  if (num_batches > in.left() / 2) return Corrupt("batch count past the end");
  std::vector<ColumnBatch> batches(num_batches);
  for (ColumnBatch& batch : batches) {
    uint64_t rows = 0, columns = 0;
    DYNOPT_RETURN_IF_ERROR(in.Varint(&rows));
    if (rows > in.left() / sizeof(uint64_t)) {
      return Corrupt("row count past the end");
    }
    DYNOPT_RETURN_IF_ERROR(in.Varint(&columns));
    if (columns > in.left() / 2) return Corrupt("column count past the end");
    batch.num_rows = rows;
    batch.columns.resize(columns);
    for (ColumnVector& col : batch.columns) {
      DYNOPT_RETURN_IF_ERROR(DecodeColumn(&in, rows, &col));
    }
    DYNOPT_RETURN_IF_ERROR(in.Array(rows, &batch.row_sizes));
  }
  if (in.left() != 0) return Corrupt("trailing bytes after the batches");
  return batches;
}

}  // namespace

uint64_t BatchFileChecksum(const void* data, size_t len) {
  // Odd multipliers, so that multiplying is a bijection mod 2^64.
  constexpr uint64_t kWordMul = 0x9fb21c651e98df25ULL;
  constexpr uint64_t kStateMul = 0xc2b2ae3d27d4eb4fULL;
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = Mix64(len);
  // For a fixed state the step is a bijection of the word, and for a fixed
  // word a bijection of the state, so changing any one word changes the
  // result.
  auto fold = [&h](uint64_t word) {
    h = std::rotl(h ^ (word * kWordMul), 29) * kStateMul;
  };
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    fold(word);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p + i, len - i);
  fold(tail);
  return Mix64(h);
}

Status WriteBatchesFile(const std::string& path,
                        const std::vector<ColumnBatch>& batches) {
  const std::string buffer = EncodeBatches(batches);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(buffer.data(), 1, buffer.size(), f);
  int close_rc = std::fclose(f);
  if (written != buffer.size() || close_rc != 0) {
    return Status::ExecutionError("short write to " + path);
  }
  return Status::OK();
}

Result<std::vector<ColumnBatch>> ReadBatchesFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + " for reading");
  }
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::ExecutionError("cannot size " + path);
  }
  const size_t n = static_cast<size_t>(size);
  auto buffer = std::make_unique_for_overwrite<char[]>(n);
  const size_t read = std::fread(buffer.get(), 1, n, f);
  std::fclose(f);
  if (read != n) return Status::ExecutionError("short read from " + path);
  return DecodeBatches(buffer.get(), n);
}

int RemoveFilesWithPrefix(const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  int removed = 0;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    if (fs::remove(entry.path(), ec) && !ec) ++removed;
  }
  return removed;
}

int CountFilesWithPrefix(const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  int count = 0;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

Status CorruptByteInFile(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + " for corruption");
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return Status::InvalidArgument(path + " is empty; nothing to corrupt");
  }
  const long pos = static_cast<long>(offset % static_cast<uint64_t>(size));
  std::fseek(f, pos, SEEK_SET);
  int byte = std::fgetc(f);
  std::fseek(f, pos, SEEK_SET);
  std::fputc((byte ^ 0x40) & 0xff, f);
  std::fclose(f);
  return Status::OK();
}

}  // namespace dynopt
