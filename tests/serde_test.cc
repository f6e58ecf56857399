#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "storage/serde.h"
#include "workloads/tpcds.h"

namespace dynopt {
namespace {

// --- Helpers --------------------------------------------------------------

/// A column of `kind` holding `values` through the table load path
/// (validity only once a NULL arrives).
ColumnVector MakeColumn(ColumnKind kind, const std::vector<Value>& values) {
  ColumnVector col;
  col.kind = kind;
  if (kind == ColumnKind::kString) col.dict = std::make_shared<StringDict>();
  for (const Value& v : values) col.Append(v);
  return col;
}

/// A batch of `columns`; row i's size is 1000 + i, which no value implies,
/// so a round trip must carry the sizes rather than recompute them.
ColumnBatch MakeBatch(std::vector<ColumnVector> columns, size_t rows) {
  ColumnBatch batch;
  batch.num_rows = rows;
  batch.columns = std::move(columns);
  batch.row_sizes.resize(rows);
  uint64_t* sizes = batch.row_sizes.mutable_data();
  for (size_t i = 0; i < rows; ++i) sizes[i] = 1000 + i;
  return batch;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dynopt_serde_test_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
bool SameArray(const SharedBuffer<T>& a, const SharedBuffer<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Asserts `got` is `want` read back: the same kinds, validity and payload
/// bytes (strings by value, NULL rows code 0, a fresh dictionary per
/// column) and the same row sizes.
void ExpectSameBatches(const std::vector<ColumnBatch>& want,
                       const std::vector<ColumnBatch>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < want.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    ASSERT_EQ(got[b].num_rows, want[b].num_rows);
    ASSERT_EQ(got[b].columns.size(), want[b].columns.size());
    EXPECT_TRUE(SameArray(got[b].row_sizes, want[b].row_sizes));
    for (size_t c = 0; c < want[b].columns.size(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      const ColumnVector& w = want[b].columns[c];
      const ColumnVector& g = got[b].columns[c];
      ASSERT_EQ(g.kind, w.kind);
      EXPECT_TRUE(SameArray(g.validity, w.validity));
      EXPECT_TRUE(SameArray(g.i64, w.i64));
      EXPECT_TRUE(SameArray(g.f64, w.f64));
      EXPECT_TRUE(SameArray(g.b8, w.b8));
      if (w.kind != ColumnKind::kString) continue;
      ASSERT_NE(g.dict, nullptr);
      EXPECT_NE(g.dict, w.dict);
      ASSERT_EQ(g.codes.size(), want[b].num_rows);
      for (size_t i = 0; i < want[b].num_rows; ++i) {
        if (w.IsNullAt(i)) {
          EXPECT_EQ(g.codes[i], 0u) << "row " << i;
        } else {
          EXPECT_EQ(g.dict->entry(g.codes[i]), w.dict->entry(w.codes[i]))
              << "row " << i;
        }
      }
    }
  }
}

std::vector<ColumnBatch> RoundTrip(const std::vector<ColumnBatch>& batches) {
  const std::string path = TempPath("roundtrip.drb");
  EXPECT_TRUE(WriteBatchesFile(path, batches).ok());
  auto back = ReadBatchesFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.ok() ? std::move(back).value() : std::vector<ColumnBatch>{};
}

/// Every kind, each once without NULLs and once with them, plus an
/// all-valid column that carries a validity mask anyway.
std::vector<ColumnBatch> KindZoo() {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const Value null = Value::Null();
  std::vector<ColumnVector> cols;
  cols.push_back(MakeColumn(
      ColumnKind::kInt64,
      {Value(int64_t{0}), Value(kMin), Value(kMax), Value(int64_t{-1})}));
  cols.push_back(MakeColumn(ColumnKind::kInt64,
                            {null, Value(int64_t{7}), null, Value(kMin)}));
  cols.push_back(MakeColumn(
      ColumnKind::kDouble,
      {Value(0.0), Value(-0.0), Value(1e300), Value(4e-320)}));
  cols.push_back(
      MakeColumn(ColumnKind::kDouble, {Value(-3.25), null, null, Value(2.5)}));
  cols.push_back(MakeColumn(ColumnKind::kBool, {Value(true), Value(false),
                                                Value(false), Value(true)}));
  cols.push_back(
      MakeColumn(ColumnKind::kBool, {null, Value(true), Value(false), null}));
  cols.push_back(MakeColumn(ColumnKind::kString, {Value("a"), Value("bb"),
                                                  Value("a"), Value("ccc")}));
  cols.push_back(
      MakeColumn(ColumnKind::kString, {Value("x"), null, Value("y"), null}));
  ColumnVector all_valid = MakeColumn(ColumnKind::kInt64,
                                      {Value(int64_t{1}), Value(int64_t{2}),
                                       Value(int64_t{3}), Value(int64_t{4})});
  all_valid.validity.assign(4, 1);
  cols.push_back(std::move(all_valid));
  std::vector<ColumnBatch> batches;
  batches.push_back(MakeBatch(std::move(cols), 4));
  return batches;
}

// --- Round trips ------------------------------------------------------------

TEST(SerdeTest, EveryKindRoundTripsWithAndWithoutNulls) {
  const std::vector<ColumnBatch> batches = KindZoo();
  ExpectSameBatches(batches, RoundTrip(batches));
}

TEST(SerdeTest, AllNullStringColumnKeepsItsKindAndADictionary) {
  std::vector<ColumnVector> cols;
  cols.push_back(MakeColumn(ColumnKind::kString,
                            {Value::Null(), Value::Null(), Value::Null()}));
  cols.push_back(MakeColumn(ColumnKind::kInt64,
                            {Value::Null(), Value::Null(), Value::Null()}));
  std::vector<ColumnBatch> batches;
  batches.push_back(MakeBatch(std::move(cols), 3));
  std::vector<ColumnBatch> back = RoundTrip(batches);
  ExpectSameBatches(batches, back);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].columns[0].kind, ColumnKind::kString);
  ASSERT_NE(back[0].columns[0].dict, nullptr);
  EXPECT_EQ(back[0].columns[0].dict->size(), 0u);
  EXPECT_EQ(back[0].RowAt(1), (Row{Value::Null(), Value::Null()}));
}

TEST(SerdeTest, AwkwardStringsRoundTrip) {
  const std::string binary("a\0b\xff\x80 c", 7);
  std::vector<ColumnVector> cols;
  cols.push_back(MakeColumn(
      ColumnKind::kString,
      {Value(std::string()), Value(binary), Value(std::string(100000, 'x')),
       Value(std::string(1, '\0')), Value(std::string())}));
  std::vector<ColumnBatch> batches;
  batches.push_back(MakeBatch(std::move(cols), 5));
  std::vector<ColumnBatch> back = RoundTrip(batches);
  ExpectSameBatches(batches, back);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].columns[0].ValueAt(1).AsString(), binary);
  EXPECT_EQ(back[0].columns[0].ValueAt(2).AsString().size(), 100000u);
  // Equal strings share one dictionary entry again.
  EXPECT_EQ(back[0].columns[0].codes[0], back[0].columns[0].codes[4]);
}

TEST(SerdeTest, ZeroRowBatchAndZeroBatchesRoundTrip) {
  EXPECT_TRUE(RoundTrip({}).empty());
  std::vector<ColumnVector> cols;
  cols.push_back(MakeColumn(ColumnKind::kString, {}));
  cols.push_back(MakeColumn(ColumnKind::kDouble, {}));
  std::vector<ColumnBatch> batches;
  batches.push_back(MakeBatch(std::move(cols), 0));
  batches.push_back(ColumnBatch());  // No columns either.
  ExpectSameBatches(batches, RoundTrip(batches));
}

class SerdeRandomTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRandomTest,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

TEST_P(SerdeRandomTest, RandomBatchesRoundTrip) {
  Rng rng(GetParam());
  std::vector<ColumnBatch> batches;
  const size_t num_batches = rng.NextUint64(4) + 1;
  const size_t width = rng.NextUint64(6) + 1;
  std::vector<ColumnKind> kinds;
  for (size_t c = 0; c < width; ++c) {
    kinds.push_back(static_cast<ColumnKind>(rng.NextUint64(4)));
  }
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t rows = rng.NextUint64(200);
    std::vector<ColumnVector> cols;
    for (ColumnKind kind : kinds) {
      const double null_rate = rng.NextBool(0.5) ? 0.0 : 0.3;
      std::vector<Value> values;
      for (size_t i = 0; i < rows; ++i) {
        if (rng.NextBool(null_rate)) {
          values.push_back(Value::Null());
          continue;
        }
        switch (kind) {
          case ColumnKind::kInt64:
            values.push_back(Value(static_cast<int64_t>(rng.Next())));
            break;
          case ColumnKind::kDouble:
            values.push_back(Value(rng.NextDouble() * 1e9 - 5e8));
            break;
          case ColumnKind::kBool:
            values.push_back(Value(rng.NextBool(0.5)));
            break;
          case ColumnKind::kString: {
            std::string s;
            const size_t len = rng.NextUint64(40);
            for (size_t k = 0; k < len; ++k) {
              s.push_back(static_cast<char>(rng.NextUint64(256)));
            }
            values.push_back(Value(std::move(s)));
            break;
          }
        }
      }
      cols.push_back(MakeColumn(kind, values));
    }
    batches.push_back(MakeBatch(std::move(cols), rows));
  }
  ExpectSameBatches(batches, RoundTrip(batches));
}

// --- Corruption handling ----------------------------------------------------

/// A multi-batch file's bytes: the kind zoo plus a second, NULL-free batch.
std::string EncodedMultiBatchFile() {
  std::vector<ColumnBatch> batches = KindZoo();
  std::vector<ColumnVector> cols;
  cols.push_back(MakeColumn(ColumnKind::kString, {Value("p"), Value("q")}));
  cols.push_back(MakeColumn(ColumnKind::kInt64,
                            {Value(int64_t{5}), Value(int64_t{6})}));
  batches.push_back(MakeBatch(std::move(cols), 2));
  const std::string path = TempPath("encode.drb");
  EXPECT_TRUE(WriteBatchesFile(path, batches).ok());
  std::string bytes = ReadBytes(path);
  std::remove(path.c_str());
  return bytes;
}

StatusCode ReadCode(const std::string& bytes) {
  const std::string path = TempPath("corrupt.drb");
  WriteBytes(path, bytes);
  const StatusCode code = ReadBatchesFile(path).status().code();
  std::remove(path.c_str());
  return code;
}

/// `bytes` with its checksum recomputed, so only the parser can object.
std::string Rechecksummed(std::string bytes) {
  uint64_t h = BatchFileChecksum(bytes.data() + 12, bytes.size() - 12);
  for (size_t i = 0; i < 8; ++i, h >>= 8) bytes[4 + i] = static_cast<char>(h);
  return bytes;
}

TEST(SerdeTest, EverySingleByteFlipIsDataCorruption) {
  const std::string good = EncodedMultiBatchFile();
  ASSERT_EQ(ReadCode(good), StatusCode::kOk);
  for (size_t offset = 0; offset < good.size(); ++offset) {
    for (unsigned mask : {0x01u, 0x40u, 0x80u, 0xffu}) {
      std::string bad = good;
      bad[offset] = static_cast<char>(bad[offset] ^ mask);
      EXPECT_EQ(ReadCode(bad), StatusCode::kDataCorruption)
          << "offset " << offset << " mask " << mask;
    }
  }
}

TEST(SerdeTest, ChecksumSeesEveryByteFlipAtEveryLengthAndTail) {
  // Lengths 0..40 cover whole words, each tail size, and both together.
  Rng rng(7);
  std::string bytes(40, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextUint64(256));
  for (size_t len = 0; len <= bytes.size(); ++len) {
    const uint64_t good = BatchFileChecksum(bytes.data(), len);
    if (len > 0) {
      EXPECT_NE(BatchFileChecksum(bytes.data(), len - 1), good) << len;
    }
    for (size_t offset = 0; offset < len; ++offset) {
      for (unsigned mask : {0x01u, 0x80u, 0xffu}) {
        std::string bad = bytes;
        bad[offset] = static_cast<char>(bad[offset] ^ mask);
        EXPECT_NE(BatchFileChecksum(bad.data(), len), good)
            << "len " << len << " offset " << offset << " mask " << mask;
      }
    }
  }
}

TEST(SerdeTest, EveryTruncationAndATrailingByteAreDataCorruption) {
  const std::string good = EncodedMultiBatchFile();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_EQ(ReadCode(good.substr(0, cut)), StatusCode::kDataCorruption)
        << "cut at " << cut;
  }
  EXPECT_EQ(ReadCode(good + "x"), StatusCode::kDataCorruption);
  EXPECT_EQ(ReadCode(Rechecksummed(good + "x")), StatusCode::kDataCorruption);
}

TEST(SerdeTest, MalformedPayloadsWithAValidChecksumAreDataCorruption) {
  // Layout of a one-batch file of 4 rows: header (12 bytes), then the
  // batch count, rows, columns, and column 0's kind and validity flag.
  std::vector<ColumnBatch> one = KindZoo();
  const std::string path = TempPath("malformed.drb");
  ASSERT_TRUE(WriteBatchesFile(path, one).ok());
  const std::string good = ReadBytes(path);
  std::remove(path.c_str());
  auto patched = [&](size_t offset, char byte) {
    std::string bad = good;
    bad[offset] = byte;
    return Rechecksummed(bad);
  };
  // Batch, row and column counts past the end, an unknown kind, and a
  // validity flag that is neither 0 nor 1.
  for (auto [offset, byte] : {std::pair<size_t, char>{12, 0x7f}, {13, 0x7f},
                              {14, 0x7f}, {15, 9}, {16, 2}}) {
    EXPECT_EQ(ReadCode(patched(offset, byte)), StatusCode::kDataCorruption)
        << "offset " << offset;
  }
  // A varint that never ends.
  std::string endless = good.substr(0, 12) + std::string(11, '\xff');
  EXPECT_EQ(ReadCode(Rechecksummed(endless)), StatusCode::kDataCorruption);
  // Any flip the checksum no longer sees either parses or is rejected.
  for (size_t offset = 12; offset < good.size(); ++offset) {
    const StatusCode code =
        ReadCode(patched(offset, static_cast<char>(good[offset] ^ 0xff)));
    EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kDataCorruption)
        << "offset " << offset;
  }
}

TEST(SerdeTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadBatchesFile(TempPath("missing.drb")).status().code(),
            StatusCode::kNotFound);
}

// --- Disk-backed materialization through the full optimizer -----------------

TEST(SerdeTest, DiskBackedMaterializationMatchesInMemory) {
  auto run = [](bool to_disk) {
    Engine engine;
    engine.mutable_cluster().materialize_to_disk = to_disk;
    TpcdsOptions options;
    options.sf = 0.2;
    EXPECT_TRUE(LoadTpcds(&engine, options).ok());
    auto query = TpcdsQ17(&engine);
    EXPECT_TRUE(query.ok());
    DynamicOptimizer optimizer(&engine);
    auto result = optimizer.Run(query.value());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows : std::vector<Row>{};
  };
  std::vector<Row> in_memory = run(false);
  std::vector<Row> on_disk = run(true);
  ASSERT_FALSE(in_memory.empty());
  EXPECT_EQ(in_memory, on_disk);
}

TEST(SerdeTest, EnginesSharingASpillDirectoryReadBackTheirOwnRows) {
  // Two engines with fresh catalogs name their temp tables alike
  // ("__tmp_m_<n>"), so their temp files must be named by something else.
  // Each materializes its own rows to disk, round after round, at the same
  // time as the other, into one directory.
  const std::string dir = TempPath("shared");
  std::filesystem::create_directories(dir);
  auto side = [&dir](int64_t tag, int* mismatches) {
    Engine engine;
    engine.mutable_cluster().materialize_to_disk = true;
    engine.mutable_cluster().spill_directory = dir;
    auto t = std::make_shared<Table>(
        "t", Schema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}),
        engine.cluster().num_nodes);
    for (int64_t i = 0; i < 2000; ++i) {
      EXPECT_TRUE(t->AppendRow({Value(tag * 1000000 + i),
                                Value("side " + std::to_string(tag))})
                      .ok());
    }
    EXPECT_TRUE(engine.catalog().RegisterTable(t).ok());
    for (int round = 0; round < 150; ++round) {
      JobExecutor executor = engine.MakeExecutor();
      auto scan = executor.Execute(*PlanNode::Scan("t", "t"), {});
      if (!scan.ok()) {
        ++*mismatches;
        continue;
      }
      const std::vector<Row> expected = scan->data.GatherRows();
      ExecMetrics metrics;
      auto sink = executor.Materialize(std::move(scan->data), "m", {}, false,
                                       &metrics, nullptr);
      if (!sink.ok()) {
        ++*mismatches;
        continue;
      }
      auto table = engine.catalog().GetTable(sink->table_name);
      std::vector<Row> got;
      for (size_t p = 0; table.ok() && p < table.value()->num_partitions();
           ++p) {
        for (Row& row : table.value()->ReadRows(p)) {
          got.push_back(std::move(row));
        }
      }
      if (got != expected) ++*mismatches;
    }
  };
  int mismatches[2] = {0, 0};
  std::thread a(side, 1, &mismatches[0]);
  std::thread b(side, 2, &mismatches[1]);
  a.join();
  b.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  EXPECT_EQ(CountFilesWithPrefix(dir, ""), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dynopt
