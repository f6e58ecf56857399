// Predicate-transfer sketch layer (stats/sketch.h):
//  - the Bloom filter never reports a false negative and stays within its
//    configured false-positive budget;
//  - the Fast-AGMS dot product tracks the exact equi-join size on uniform
//    and skewed key distributions;
//  - shard merging is commutative and associative (bitwise OR / elementwise
//    add), so per-partition builders combine into one dataset-level sketch;
//  - everything is deterministic under a fixed seed.

#include "stats/sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "exec/cluster.h"

namespace dynopt {
namespace {

// Deterministic stand-in for the executor's key hashing: any fixed 64-bit
// mix works, the sketches only require that equal keys hash equally.
uint64_t KeyHash(uint64_t key) { return SketchMix64(key ^ 0x9a3c7b5d1e2f4a60ULL); }

TEST(BloomFilterTest, NoFalseNegativesEver) {
  const int n = 20000;
  BloomFilter bloom(n, 8.0);
  for (int i = 0; i < n; ++i) bloom.Insert(KeyHash(i));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(bloom.MayContain(KeyHash(i))) << "false negative at key " << i;
  }
  EXPECT_EQ(bloom.num_inserted(), static_cast<uint64_t>(n));
}

TEST(BloomFilterTest, FalsePositiveRateWithinConfiguredBound) {
  const int n = 20000;
  for (double bits_per_key : {8.0, 12.0}) {
    BloomFilter bloom(n, bits_per_key);
    for (int i = 0; i < n; ++i) bloom.Insert(KeyHash(i));
    int false_positives = 0;
    const int probes = 50000;
    for (int i = 0; i < probes; ++i) {
      if (bloom.MayContain(KeyHash(1000000 + i))) ++false_positives;
    }
    // Theoretical blocked-Bloom rate at load n*bits_per_key with
    // k = round(bits_per_key * ln 2) hashes: (1 - e^(-n*k/m))^k. At 8 bpk
    // that is ~2.2%, at 12 bpk ~0.4%; allow 2x slack for per-slice
    // crowding before declaring the sizing math broken.
    const double k = static_cast<double>(bloom.num_hashes());
    const double m = static_cast<double>(bloom.num_bits());
    const double theoretical =
        std::pow(1.0 - std::exp(-static_cast<double>(n) * k / m), k);
    const double observed =
        static_cast<double>(false_positives) / static_cast<double>(probes);
    EXPECT_LE(observed, 2.0 * theoretical + 0.001)
        << "bits_per_key=" << bits_per_key;
  }
}

TEST(BloomFilterTest, MergeIsUnionAndCommutative) {
  const int n = 5000;
  // Shards must be sized from the same expected total to share a layout.
  BloomFilter a(2 * n, 8.0), b(2 * n, 8.0), ba(2 * n, 8.0);
  for (int i = 0; i < n; ++i) a.Insert(KeyHash(i));
  for (int i = n; i < 2 * n; ++i) b.Insert(KeyHash(i));
  BloomFilter ab = a;
  ASSERT_TRUE(ab.MergeFrom(b));
  ba = b;
  ASSERT_TRUE(ba.MergeFrom(a));
  for (int i = 0; i < 2 * n; ++i) {
    ASSERT_TRUE(ab.MayContain(KeyHash(i)));
    ASSERT_TRUE(ba.MayContain(KeyHash(i)));
  }
  // Commutative: both orders answer identically on a probe sweep.
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(ab.MayContain(KeyHash(i)), ba.MayContain(KeyHash(i)));
  }
  EXPECT_EQ(ab.num_inserted(), static_cast<uint64_t>(2 * n));
}

TEST(BloomFilterTest, MergeRejectsLayoutMismatch) {
  BloomFilter a(1000, 8.0), b(4000, 8.0), c(1000, 12.0);
  EXPECT_FALSE(a.MergeFrom(b));  // Different size.
  EXPECT_FALSE(a.MergeFrom(c));  // Different hash count.
  BloomFilter d(1000, 8.0, /*seed=*/42);
  EXPECT_FALSE(a.MergeFrom(d));  // Different seed.
}

// Exact equi-join size of two frequency maps: sum_k f_a(k) * f_b(k).
double ExactJoinSize(const std::map<uint64_t, int64_t>& a,
                     const std::map<uint64_t, int64_t>& b) {
  double total = 0;
  for (const auto& [k, fa] : a) {
    auto it = b.find(k);
    if (it != b.end()) total += static_cast<double>(fa * it->second);
  }
  return total;
}

TEST(FastAgmsTest, TracksUniformJoinSize) {
  SketchOptions opts;
  FastAgmsSketch left(opts), right(opts);
  std::map<uint64_t, int64_t> fl, fr;
  // 6000 rows over 600 keys on the left, 600 distinct keys on the right:
  // every left row joins exactly once.
  for (int i = 0; i < 6000; ++i) {
    left.Update(KeyHash(i % 600));
    ++fl[i % 600];
  }
  for (int i = 0; i < 600; ++i) {
    right.Update(KeyHash(i));
    ++fr[i];
  }
  const double exact = ExactJoinSize(fl, fr);
  ASSERT_EQ(exact, 6000.0);
  const double est = left.JoinSizeEstimate(right);
  EXPECT_GE(est, 0.5 * exact);
  EXPECT_LE(est, 2.0 * exact);
}

TEST(FastAgmsTest, SeesHotKeySkewTheNdvQuotientMisses) {
  SketchOptions opts;
  FastAgmsSketch left(opts), right(opts);
  std::map<uint64_t, int64_t> fl, fr;
  // One hot key on both sides: 2000 x 500 = 1M of the 1.0005M join rows
  // come from a single key. Formula (1) would divide 2500*1000 by
  // max(ndv)=501 and estimate ~5000 — off by 200x; the sketch dot product
  // must land within 2x of the truth.
  for (int i = 0; i < 2000; ++i) {
    left.Update(KeyHash(7));
    ++fl[7];
  }
  for (int i = 0; i < 500; ++i) {
    left.Update(KeyHash(100 + i));
    ++fl[100 + i];
  }
  for (int i = 0; i < 500; ++i) {
    right.Update(KeyHash(7));
    ++fr[7];
  }
  for (int i = 0; i < 500; ++i) {
    right.Update(KeyHash(100 + i));
    ++fr[100 + i];
  }
  const double exact = ExactJoinSize(fl, fr);
  ASSERT_EQ(exact, 2000.0 * 500 + 500);
  const double est = left.JoinSizeEstimate(right);
  EXPECT_GE(est, 0.5 * exact);
  EXPECT_LE(est, 2.0 * exact);
}

TEST(FastAgmsTest, MergeIsCommutativeAndAssociative) {
  SketchOptions opts;
  FastAgmsSketch a(opts), b(opts), c(opts), probe(opts);
  for (int i = 0; i < 1000; ++i) a.Update(KeyHash(i % 50));
  for (int i = 0; i < 800; ++i) b.Update(KeyHash(i % 80));
  for (int i = 0; i < 600; ++i) c.Update(KeyHash(i % 30));
  for (int i = 0; i < 90; ++i) probe.Update(KeyHash(i));

  // (a + b) + c
  FastAgmsSketch abc1 = a;
  ASSERT_TRUE(abc1.MergeFrom(b));
  ASSERT_TRUE(abc1.MergeFrom(c));
  // a + (b + c)
  FastAgmsSketch bc = b;
  ASSERT_TRUE(bc.MergeFrom(c));
  FastAgmsSketch abc2 = a;
  ASSERT_TRUE(abc2.MergeFrom(bc));
  // c + b + a (another order)
  FastAgmsSketch abc3 = c;
  ASSERT_TRUE(abc3.MergeFrom(b));
  ASSERT_TRUE(abc3.MergeFrom(a));

  // Counters are integers, so every merge order yields the exact same
  // estimate against any probe sketch.
  EXPECT_EQ(abc1.JoinSizeEstimate(probe), abc2.JoinSizeEstimate(probe));
  EXPECT_EQ(abc1.JoinSizeEstimate(probe), abc3.JoinSizeEstimate(probe));
  EXPECT_EQ(abc1.total_count(), abc2.total_count());
  EXPECT_EQ(abc1.total_count(), abc3.total_count());
  EXPECT_EQ(abc1.SelfJoinSize(), abc2.SelfJoinSize());
}

TEST(FastAgmsTest, MergeAndEstimateRejectShapeMismatch) {
  SketchOptions narrow;
  narrow.agms_width = 64;
  SketchOptions shallow;
  shallow.agms_depth = 3;
  SketchOptions reseeded;
  reseeded.seed = 1;
  FastAgmsSketch base{SketchOptions()};
  FastAgmsSketch w(narrow), d(shallow), s(reseeded);
  EXPECT_FALSE(base.MergeFrom(w));
  EXPECT_FALSE(base.MergeFrom(d));
  EXPECT_FALSE(base.MergeFrom(s));
  EXPECT_EQ(base.JoinSizeEstimate(w), -1.0);
  EXPECT_EQ(base.JoinSizeEstimate(d), -1.0);
  EXPECT_EQ(base.JoinSizeEstimate(s), -1.0);
}

TEST(SketchTest, DeterministicUnderFixedSeed) {
  SketchOptions opts;
  FastAgmsSketch a1(opts), a2(opts), b(opts);
  BloomFilter f1(1000, 8.0), f2(1000, 8.0);
  for (int i = 0; i < 1000; ++i) {
    a1.Update(KeyHash(i % 97));
    a2.Update(KeyHash(i % 97));
    b.Update(KeyHash(i % 41));
    f1.Insert(KeyHash(i));
    f2.Insert(KeyHash(i));
  }
  EXPECT_EQ(a1.JoinSizeEstimate(b), a2.JoinSizeEstimate(b));
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(f1.MayContain(KeyHash(i)), f2.MayContain(KeyHash(i)));
  }
}

TEST(SketchManagerTest, PutGetRemoveTable) {
  SketchManager manager;
  SketchOptions opts;
  auto make = [&] {
    return std::make_shared<JoinKeySketch>(
        JoinKeySketch{BloomFilter(10, 8.0), FastAgmsSketch(opts), 10, 0});
  };
  manager.Put("orders", "o_okey", make());
  manager.Put("orders", "o_ckey", make());
  manager.Put("lineitem", "l_okey", make());
  EXPECT_TRUE(manager.Has("orders", "o_okey"));
  EXPECT_NE(manager.Get("orders", "o_ckey"), nullptr);
  EXPECT_EQ(manager.Get("orders", "missing"), nullptr);
  manager.RemoveTable("orders");
  EXPECT_FALSE(manager.Has("orders", "o_okey"));
  EXPECT_FALSE(manager.Has("orders", "o_ckey"));
  EXPECT_TRUE(manager.Has("lineitem", "l_okey"));
  manager.Clear();
  EXPECT_FALSE(manager.Has("lineitem", "l_okey"));
}

}  // namespace
}  // namespace dynopt
