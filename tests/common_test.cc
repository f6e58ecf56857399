#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/value.h"

namespace dynopt {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table t");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "table t");
  EXPECT_EQ(st.ToString(), "NotFound: table t");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::Unimplemented("").code(),   Status::Internal("").code(),
      Status::ParseError("").code(),      Status::BindError("").code(),
      Status::ExecutionError("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubled(Result<int> in) {
  DYNOPT_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(Status::NotFound("x")).status().code(),
            StatusCode::kNotFound);
}

Status FailsIf(bool fail) {
  DYNOPT_RETURN_IF_ERROR(fail ? Status::Internal("x") : Status::OK());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(FailsIf(false).ok());
  EXPECT_FALSE(FailsIf(true).ok());
}

// --- Value -----------------------------------------------------------------

TEST(ValueTest, TypesAreTagged) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(int64_t{7}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(1.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("x").type(), ValueType::kString);
  EXPECT_TRUE(Value::Null().is_null());
}

TEST(ValueTest, IntOrdering) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_EQ(Value(5), Value(5));
  EXPECT_GT(Value(9), Value(-9));
}

TEST(ValueTest, CrossNumericComparisonCoerces) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.0), Value(int64_t{3}));
  EXPECT_EQ(Value(true), Value(int64_t{1}));
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value::Null(), Value("a"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(int64_t{42}).Hash());
  EXPECT_EQ(Value("join").Hash(), Value("join").Hash());
  // Integral doubles hash like the equal int (joins across types work).
  EXPECT_EQ(Value(42.0).Hash(), Value(int64_t{42}).Hash());
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(int64_t{2}).Hash());
}

TEST(ValueTest, SizeBytesReflectsContent) {
  EXPECT_EQ(Value(int64_t{1}).SizeBytes(), 8u);
  EXPECT_EQ(Value(1.0).SizeBytes(), 8u);
  EXPECT_GT(Value("hello world").SizeBytes(), 11u);
  EXPECT_EQ(Value::Null().SizeBytes(), 1u);
}

TEST(ValueTest, NumericKeyMonotoneForNumbers) {
  EXPECT_LT(Value(int64_t{1}).NumericKey(), Value(int64_t{2}).NumericKey());
  EXPECT_DOUBLE_EQ(Value(2.5).NumericKey(), 2.5);
  EXPECT_TRUE(std::isnan(Value::Null().NumericKey()));
}

TEST(ValueTest, ToStringRendersAllTypes) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
}

TEST(RowTest, HashRowKeyOnSubset) {
  Row a = {Value(1), Value("x"), Value(9)};
  Row b = {Value(1), Value("y"), Value(9)};
  std::vector<int> keys = {0, 2};
  EXPECT_EQ(HashRowKey(a, keys), HashRowKey(b, keys));
  std::vector<int> all = {0, 1, 2};
  EXPECT_NE(HashRowKey(a, all), HashRowKey(b, all));
}

TEST(RowTest, RowSizeBytesSumsValues) {
  Row r = {Value(int64_t{1}), Value(int64_t{2})};
  EXPECT_EQ(RowSizeBytes(r), 8u + 8u + 8u);  // Header + two ints.
}

// --- Hashing ---------------------------------------------------------------

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(123), Mix64(123));
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(HashTest, HashStringAvalanche) {
  EXPECT_NE(HashString("a"), HashString("b"));
  EXPECT_NE(HashString("ab"), HashString("ba"));
  EXPECT_EQ(HashString("same"), HashString("same"));
}

TEST(HashTest, HashBytesMatchesHashString) {
  EXPECT_EQ(HashBytes("abc", 3), HashString("abc"));
}

TEST(HashTest, IntegralDoublesHashLikeInt64AndOthersHashTheirBits) {
  for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    -(int64_t{1} << 53), int64_t{1} << 62}) {
    EXPECT_EQ(HashDouble(static_cast<double>(i)),
              Mix64(static_cast<uint64_t>(i)))
        << i;
  }
  EXPECT_EQ(HashDouble(-0.0), Mix64(0));
  auto bits_hash = [](double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(d));
    return Mix64(bits);
  };
  const double inf = std::numeric_limits<double>::infinity();
  // Fractions, values at or beyond the int64 range (integral, but past the
  // 9e18 cut-off), infinities and NaN hash their bits; none is cast.
  for (double d : {0.5, -2.25, 9.1e18, -9.1e18, std::ldexp(1.0, 63),
                   -std::ldexp(1.0, 63), 1e300, -1e300, inf, -inf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(HashDouble(d), bits_hash(d)) << d;
  }
}

// --- Rng / Zipf ------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, NextInt64InRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBool(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngTest, NextUint64Uniformish) {
  Rng rng(4);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 50000; ++i) ++buckets[rng.NextUint64(10)];
  for (int count : buckets) EXPECT_NEAR(count, 5000, 500);
}

TEST(ZipfTest, SkewConcentratesOnHead) {
  Rng rng(5);
  ZipfDistribution zipf(1000, 1.2);
  std::map<size_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  // Head item dominates, tail items rare.
  EXPECT_GT(counts[0], counts[100] * 5);
  EXPECT_GT(counts[0], 2000);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  Rng rng(6);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  for (int count : counts) EXPECT_NEAR(count, 5000, 600);
}

TEST(ZipfTest, SamplesStayInDomain) {
  Rng rng(7);
  ZipfDistribution zipf(17, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 17u);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyAndSingleWork) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  int calls = 0;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(50, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Inner loops launched from inside worker tasks: index claiming plus the
  // caller draining its own loop means this must complete even when every
  // worker is already occupied by an outer task.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(16, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, BlockedIndexDoesNotHoldBackTheOthers) {
  // Each index is claimed on its own: while index 0 waits, the other two
  // threads (one worker and the caller, or two workers) run indices 1..9.
  // Were indices handed out in contiguous blocks, 1 and 2 would sit behind
  // index 0 and the wait would time out.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  bool others_finished = false;
  pool.ParallelFor(10, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      others_finished = cv.wait_for(lock, std::chrono::seconds(5),
                                    [&] { return finished == 9; });
    } else {
      ++finished;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(others_finished);
  EXPECT_EQ(finished, 9);
}

TEST(ThreadPoolTest, ConcurrentParallelForFromManyThreads) {
  // The multi-query scenario: several external threads (admitted queries)
  // drive overlapping ParallelFor calls through ONE shared pool. Every
  // index of every loop must run exactly once; run under TSan in CI.
  ThreadPool pool(3);
  constexpr int kCallers = 8;
  constexpr int kRounds = 25;
  constexpr size_t kWidth = 64;
  std::vector<std::atomic<int>> hits(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c]() {
      for (int round = 0; round < kRounds; ++round) {
        pool.ParallelFor(kWidth, [&](size_t) {
          hits[static_cast<size_t>(c)].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(hits[static_cast<size_t>(c)].load(),
              kRounds * static_cast<int>(kWidth))
        << "caller " << c;
  }
}

}  // namespace
}  // namespace dynopt
