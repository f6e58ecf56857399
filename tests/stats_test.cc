#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "stats/column_stats.h"
#include "stats/gk_quantile.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/table_stats.h"
#include "support/reference_stats.h"

namespace dynopt {
namespace {

// --- Greenwald-Khanna quantile sketch ---------------------------------------

TEST(GkQuantileTest, ExactOnTinyInput) {
  GkQuantileSketch sketch(0.01);
  for (int i = 1; i <= 10; ++i) sketch.Insert(i);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 10.0);
  EXPECT_NEAR(sketch.Quantile(0.5), 5.5, 1.0);
}

TEST(GkQuantileTest, CountTracksInserts) {
  GkQuantileSketch sketch;
  for (int i = 0; i < 1234; ++i) sketch.Insert(i);
  EXPECT_EQ(sketch.count(), 1234u);
}

TEST(GkQuantileTest, CompressionBoundsMemory) {
  GkQuantileSketch sketch(0.01);
  for (int i = 0; i < 100000; ++i) sketch.Insert(i);
  // A GK summary holds O(1/eps * log(eps n)) tuples — far below n.
  EXPECT_LT(sketch.NumTuples(), 5000u);
}

/// Property sweep: quantile error stays within epsilon*n rank error across
/// distributions and sizes.
class GkAccuracyTest
    : public ::testing::TestWithParam<std::tuple<int, const char*>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, GkAccuracyTest,
    ::testing::Combine(::testing::Values(1000, 10000, 100000),
                       ::testing::Values("uniform", "normalish", "zipfy",
                                         "sorted", "reversed")));

TEST_P(GkAccuracyTest, RankErrorWithinEpsilon) {
  const int n = std::get<0>(GetParam());
  const std::string dist = std::get<1>(GetParam());
  const double eps = 0.01;
  Rng rng(99);
  std::vector<double> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    double v;
    if (dist == "uniform") {
      v = rng.NextDouble() * 1000.0;
    } else if (dist == "normalish") {
      v = 0;  // Sum of uniforms approximates a normal.
      for (int k = 0; k < 6; ++k) v += rng.NextDouble();
    } else if (dist == "zipfy") {
      v = std::pow(rng.NextDouble(), 4.0) * 100.0;
    } else if (dist == "sorted") {
      v = i;
    } else {
      v = n - i;
    }
    data.push_back(v);
  }
  GkQuantileSketch sketch(eps);
  for (double v : data) sketch.Insert(v);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (double phi : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    double q = sketch.Quantile(phi);
    // True rank of the reported value.
    auto lo = std::lower_bound(sorted.begin(), sorted.end(), q);
    auto hi = std::upper_bound(sorted.begin(), sorted.end(), q);
    double target = phi * (n - 1);
    double rank_lo = static_cast<double>(lo - sorted.begin());
    double rank_hi = static_cast<double>(hi - sorted.begin());
    double err = 0;
    if (target < rank_lo) err = rank_lo - target;
    if (target > rank_hi) err = target - rank_hi;
    EXPECT_LE(err, 3.0 * eps * n + 2.0)
        << "phi=" << phi << " dist=" << dist << " n=" << n;
  }
}

TEST(GkQuantileTest, MergePreservesAccuracy) {
  const double eps = 0.01;
  GkQuantileSketch left(eps), right(eps);
  Rng rng(5);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextDouble() * 100;
    all.push_back(v);
    (i % 2 == 0 ? left : right).Insert(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), 20000u);
  std::sort(all.begin(), all.end());
  for (double phi : {0.1, 0.5, 0.9}) {
    double q = left.Quantile(phi);
    double truth = all[static_cast<size_t>(phi * (all.size() - 1))];
    EXPECT_NEAR(q, truth, 3.0);  // ~3% of the value range.
  }
}

TEST(GkQuantileTest, MergeIntoEmptyCopies) {
  GkQuantileSketch a, b;
  for (int i = 0; i < 100; ++i) b.Insert(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.Quantile(0.5), 50.0, 5.0);
  GkQuantileSketch empty;
  a.Merge(empty);  // No-op.
  EXPECT_EQ(a.count(), 100u);
}

TEST(GkQuantileTest, RankFractionIsApproximateCdf) {
  GkQuantileSketch sketch(0.005);
  for (int i = 0; i < 10000; ++i) sketch.Insert(i);
  EXPECT_DOUBLE_EQ(sketch.EstimateRankFraction(-1), 0.0);
  EXPECT_DOUBLE_EQ(sketch.EstimateRankFraction(10001), 1.0);
  EXPECT_NEAR(sketch.EstimateRankFraction(2500), 0.25, 0.03);
  EXPECT_NEAR(sketch.EstimateRankFraction(7500), 0.75, 0.03);
}

TEST(GkQuantileTest, BoundariesAreMonotone) {
  GkQuantileSketch sketch;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) sketch.Insert(rng.NextDouble());
  std::vector<double> bounds = sketch.ExtractBoundaries(32);
  ASSERT_EQ(bounds.size(), 33u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1], bounds[i]);
  }
}

// --- Buffered GK vs the one-at-a-time oracle ---------------------------------

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(d));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(Bits(v));
  return bits;
}

::testing::AssertionResult SameSummary(const GkQuantileSketch& got,
                                       const reference::GkSketch& want) {
  if (got.count() != want.count()) {
    return ::testing::AssertionFailure()
           << "count " << got.count() << " != " << want.count();
  }
  const auto& a = got.tuples();
  const auto& b = want.tuples();
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " tuples != " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i].v) != Bits(b[i].v) || a[i].g != b[i].g ||
        a[i].delta != b[i].delta) {
      return ::testing::AssertionFailure()
             << "tuple " << i << ": (" << a[i].v << ", " << a[i].g << ", "
             << a[i].delta << ") != (" << b[i].v << ", " << b[i].g << ", "
             << b[i].delta << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> ParityStream(const std::string& kind, size_t n,
                                 Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    double v = rng.NextDouble() * 1000.0;
    if (kind == "low-cardinality") {
      v = static_cast<double>(rng.NextUint64(6));
    } else if (kind == "signed-zero") {
      const double choices[] = {0.0, -0.0, 0.0, -0.0, 1.0, -1.0};
      v = choices[rng.NextUint64(6)];
    } else if (kind == "above-2^53") {
      // Neighbouring int64s round to the same double: ties everywhere.
      v = static_cast<double>((int64_t{1} << 53) +
                              static_cast<int64_t>(rng.NextUint64(64)));
    } else if (kind == "sorted") {
      v = static_cast<double>(i);
    } else if (kind == "reversed") {
      v = static_cast<double>(n - i);
    } else if (kind == "nan") {
      if (rng.NextUint64(1000) == 0) v = nan;
    }
    out[i] = v;
  }
  if (kind == "nan") out[n / 2] = nan;  // At least one, mid-stream.
  return out;
}

TEST(GkParityTest, BufferedInsertsMatchOneAtATimeBitForBit) {
  // Every stream feeds a main and a side sketch pair (engine vs oracle),
  // one value per Insert call or in bulk calls of 1 to 600 values, which
  // the engine splits at compress periods and at the pending cap. A bulk
  // call never starts with a NaN, so each NaN follows values of its own
  // call. Quantile, NumTuples, boundary extraction and merges of the side
  // sketch are interleaved at random points, flushing the engine's pending
  // inserts mid-period. 1e-4 has a compress period of 5000, above the
  // pending cap.
  for (const char* kind : {"uniform", "low-cardinality", "signed-zero",
                           "above-2^53", "sorted", "reversed", "nan"}) {
    for (double eps : {0.005, 0.01, 0.003, 0.0001}) {
      for (uint64_t seed : {1u, 2u}) {
        for (bool bulk : {false, true}) {
          SCOPED_TRACE(std::string(kind) + " eps=" + std::to_string(eps) +
                       " seed=" + std::to_string(seed) +
                       (bulk ? " bulk" : " one at a time"));
          Rng rng(seed * 7919 + static_cast<uint64_t>(eps * 1e6));
          const std::vector<double> stream =
              ParityStream(kind, 4000 + rng.NextUint64(12000), rng);
          GkQuantileSketch main(eps), side(eps);
          reference::GkSketch main_ref(eps), side_ref(eps);
          for (size_t i = 0; i < stream.size();) {
            size_t len = std::min<size_t>(bulk ? 1 + rng.NextUint64(600) : 1,
                                          stream.size() - i);
            while (bulk && i + len < stream.size() &&
                   std::isnan(stream[i + len])) {
              ++len;
            }
            const bool to_side = rng.NextBool(0.3);
            GkQuantileSketch& sketch = to_side ? side : main;
            reference::GkSketch& ref = to_side ? side_ref : main_ref;
            if (bulk) {
              sketch.Insert(stream.data() + i, len);
            } else {
              sketch.Insert(stream[i]);
            }
            for (size_t j = i; j < i + len; ++j) ref.Insert(stream[j]);
            i += len;
            if (rng.NextUint64(bulk ? 3 : 300) != 0 || main.count() == 0) {
              continue;
            }
            switch (rng.NextUint64(5)) {
              case 0: {
                const double phi = rng.NextDouble();
                ASSERT_EQ(Bits(main.Quantile(phi)),
                          Bits(main_ref.Quantile(phi)));
                break;
              }
              case 1:
                ASSERT_EQ(main.NumTuples(), main_ref.tuples().size());
                break;
              case 2:
                main.Merge(side);
                main_ref.Merge(side_ref);
                ASSERT_TRUE(SameSummary(side, side_ref));
                break;
              case 3:
                ASSERT_EQ(Bits(main.ExtractBoundaries(64)),
                          Bits(main_ref.ExtractBoundaries(64)));
                break;
              default:
                ASSERT_TRUE(SameSummary(main, main_ref));
                break;
            }
          }
          main.Merge(side);
          main_ref.Merge(side_ref);
          ASSERT_TRUE(SameSummary(main, main_ref));
          ASSERT_EQ(Bits(main.ExtractBoundaries(64)),
                    Bits(main_ref.ExtractBoundaries(64)));
          // A merge into an empty sketch copies the flushed summary.
          GkQuantileSketch copy(eps);
          reference::GkSketch copy_ref(eps);
          copy.Merge(main);
          copy_ref.Merge(main_ref);
          ASSERT_TRUE(SameSummary(copy, copy_ref));
        }
      }
    }
  }
}

// --- HyperLogLog -------------------------------------------------------------

TEST(HllTest, EstimateMatchesLdexpSumBitForBit) {
  Rng rng(17);
  for (int precision : {4, 5, 6, 12, 14}) {
    for (int n : {0, 3, 40, 2000, 200000}) {
      HyperLogLog hll(precision);
      reference::HllSketch ref(precision);
      for (int i = 0; i < n; ++i) {
        const uint64_t h = rng.Next();
        hll.Add(h);
        ref.Add(h);
      }
      EXPECT_EQ(Bits(hll.Estimate()), Bits(ref.Estimate()))
          << "precision=" << precision << " n=" << n;
    }
  }
}

class HllAccuracyTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllAccuracyTest,
                         ::testing::Values(10, 100, 1000, 10000, 100000,
                                           1000000));

TEST_P(HllAccuracyTest, EstimateWithinFivePercent) {
  const int n = GetParam();
  HyperLogLog hll(14);
  for (int i = 0; i < n; ++i) hll.Add(Mix64(static_cast<uint64_t>(i)));
  EXPECT_NEAR(hll.Estimate(), n, std::max(2.0, 0.05 * n));
}

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) hll.Add(Mix64(static_cast<uint64_t>(i)));
  }
  EXPECT_NEAR(hll.Estimate(), 50.0, 5.0);
}

TEST(HllTest, EmptyEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_NEAR(hll.Estimate(), 0.0, 0.5);
}

TEST(HllTest, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), expected(12);
  for (int i = 0; i < 5000; ++i) {
    uint64_t h = Mix64(static_cast<uint64_t>(i));
    (i % 2 == 0 ? a : b).Add(h);
    expected.Add(h);
  }
  // Overlap: both see 1000 shared elements.
  for (int i = 0; i < 1000; ++i) {
    uint64_t h = Mix64(static_cast<uint64_t>(1000000 + i));
    a.Add(h);
    b.Add(h);
    expected.Add(h);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), expected.Estimate());
}

// --- Equi-height histogram ---------------------------------------------------

EquiHeightHistogram MakeUniformHistogram(int n, int buckets) {
  GkQuantileSketch sketch(0.005);
  for (int i = 0; i < n; ++i) sketch.Insert(i);
  return EquiHeightHistogram::FromSketch(sketch, buckets);
}

TEST(HistogramTest, EmptyIsUninformative) {
  EquiHeightHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.EstimateLessOrEqualFraction(5), 0.5);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(0, 1), 1.0 / 3.0);
}

TEST(HistogramTest, CdfEndpoints) {
  EquiHeightHistogram h = MakeUniformHistogram(10000, 64);
  EXPECT_DOUBLE_EQ(h.EstimateLessOrEqualFraction(-1), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateLessOrEqualFraction(10000), 1.0);
}

TEST(HistogramTest, UniformRangeSelectivity) {
  EquiHeightHistogram h = MakeUniformHistogram(10000, 64);
  EXPECT_NEAR(h.EstimateRangeFraction(2500, 7500), 0.5, 0.05);
  EXPECT_NEAR(h.EstimateRangeFraction(0, 999), 0.1, 0.03);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(5, 4), 0.0);
}

class HistogramBucketsTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Buckets, HistogramBucketsTest,
                         ::testing::Values(4, 16, 64, 256));

TEST_P(HistogramBucketsTest, MoreBucketsNeverWorseThanCoarsest) {
  const int buckets = GetParam();
  // Skewed data: 90% of mass in [0, 10), 10% in [10, 1000).
  GkQuantileSketch sketch(0.002);
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    double v = rng.NextBool(0.9) ? rng.NextDouble() * 10
                                 : 10 + rng.NextDouble() * 990;
    sketch.Insert(v);
  }
  auto h = EquiHeightHistogram::FromSketch(sketch, buckets);
  double est = h.EstimateRangeFraction(0, 10);
  // With >= 16 buckets the estimate should be close to the true 0.9.
  double tolerance = buckets >= 16 ? 0.05 : 0.30;
  EXPECT_NEAR(est, 0.9, tolerance) << "buckets=" << buckets;
}

// --- Column / table stats ----------------------------------------------------

TEST(ColumnStatsTest, TracksCountNullsMinMax) {
  ColumnStatsBuilder builder;
  builder.Add(Value(int64_t{5}));
  builder.Add(Value(int64_t{1}));
  builder.Add(Value::Null());
  builder.Add(Value(int64_t{9}));
  ColumnStatsSnapshot snap = builder.Finalize();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.null_count, 1u);
  EXPECT_EQ(snap.min_value, Value(int64_t{1}));
  EXPECT_EQ(snap.max_value, Value(int64_t{9}));
  EXPECT_NEAR(snap.ndv, 3.0, 0.5);
}

TEST(ColumnStatsTest, EqSelectivityUsesNdv) {
  ColumnStatsBuilder builder;
  for (int i = 0; i < 1000; ++i) builder.Add(Value(int64_t{i % 50}));
  ColumnStatsSnapshot snap = builder.Finalize();
  EXPECT_NEAR(snap.EstimateEqSelectivity(Value(int64_t{7})), 1.0 / 50, 0.005);
  // Out-of-range constant estimates zero.
  EXPECT_DOUBLE_EQ(snap.EstimateEqSelectivity(Value(int64_t{500})), 0.0);
}

TEST(ColumnStatsTest, RangeSelectivityUsesHistogram) {
  ColumnStatsBuilder builder;
  for (int i = 0; i < 10000; ++i) builder.Add(Value(int64_t{i}));
  ColumnStatsSnapshot snap = builder.Finalize();
  EXPECT_NEAR(snap.EstimateRangeSelectivity(Value(int64_t{0}),
                                            Value(int64_t{999})),
              0.1, 0.03);
  // Open-ended range.
  EXPECT_NEAR(
      snap.EstimateRangeSelectivity(Value(int64_t{9000}), Value::Null()), 0.1,
      0.03);
}

TEST(ColumnStatsTest, MergeMatchesSingleStream) {
  ColumnStatsBuilder a, b, combined;
  Rng rng(8);
  for (int i = 0; i < 4000; ++i) {
    Value v(rng.NextInt64(0, 500));
    (i % 2 == 0 ? a : b).Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  ColumnStatsSnapshot merged = a.Finalize();
  ColumnStatsSnapshot single = combined.Finalize();
  EXPECT_EQ(merged.count, single.count);
  EXPECT_NEAR(merged.ndv, single.ndv, single.ndv * 0.02 + 1);
  EXPECT_EQ(merged.min_value, single.min_value);
  EXPECT_EQ(merged.max_value, single.max_value);
}

TEST(ColumnStatsTest, MergeKeepsQuantilesOnlyWhenBothSidesHaveThem) {
  ColumnStatsBuilder full, also_full;
  ColumnStatsBuilder skip(StatsOptions(), Quantiles::kSkip);
  for (int i = 0; i < 1000; ++i) {
    full.Add(Value(i));
    also_full.Add(Value(i + 1000));
    skip.Add(Value(i + 2000));
  }
  ColumnStatsBuilder both = full;
  both.Merge(also_full);
  EXPECT_EQ(both.Finalize().histogram.count(), 2000u);
  ColumnStatsBuilder mixed = full;
  mixed.Merge(skip);
  const ColumnStatsSnapshot snap = mixed.Finalize();
  EXPECT_EQ(snap.count, 2000u);
  EXPECT_EQ(snap.max_value, Value(2999));
  EXPECT_TRUE(snap.histogram.empty());
  // Without a histogram a range estimates at Selinger's 1/3.
  EXPECT_DOUBLE_EQ(snap.EstimateRangeSelectivity(Value(0), Value(10)),
                   1.0 / 3.0);
}

TEST(StatsOptionsTest, OutOfRangeFieldsAreNamed) {
  EXPECT_TRUE(ValidateStatsOptions(StatsOptions()).ok());
  auto code_and_field = [](StatsOptions options, const char* field) {
    const Status st = ValidateStatsOptions(options);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(st.message().find(field), std::string::npos) << st.message();
  };
  for (double eps : {0.0, -0.1, 0.5, 2.0,
                     std::numeric_limits<double>::quiet_NaN()}) {
    StatsOptions options;
    options.gk_epsilon = eps;
    code_and_field(options, "gk_epsilon");
  }
  for (int precision : {3, 19, 20}) {
    StatsOptions options;
    options.hll_precision = precision;
    code_and_field(options, "hll_precision");
  }
  for (int buckets : {0, -4, 65537}) {
    StatsOptions options;
    options.histogram_buckets = buckets;
    code_and_field(options, "histogram_buckets");
  }
}

TEST(TableStatsTest, BuilderCollectsSelectedColumns) {
  TableStatsBuilder builder({"a", "c"}, {0, 2});
  for (int i = 0; i < 100; ++i) {
    builder.AddRow({Value(i), Value("skip"), Value(i % 10)});
  }
  TableStats stats = builder.Finalize();
  EXPECT_EQ(stats.row_count, 100u);
  EXPECT_GT(stats.total_bytes, 0u);
  ASSERT_TRUE(stats.HasColumn("a"));
  ASSERT_TRUE(stats.HasColumn("c"));
  EXPECT_FALSE(stats.HasColumn("b"));
  EXPECT_NEAR(stats.Column("a")->ndv, 100.0, 3.0);
  EXPECT_NEAR(stats.Column("c")->ndv, 10.0, 1.0);
}

TEST(TableStatsTest, MergeAccumulates) {
  TableStatsBuilder a({"x"}, {0}), b({"x"}, {0});
  for (int i = 0; i < 50; ++i) a.AddRow({Value(i)});
  for (int i = 50; i < 150; ++i) b.AddRow({Value(i)});
  a.Merge(b);
  TableStats stats = a.Finalize();
  EXPECT_EQ(stats.row_count, 150u);
  EXPECT_NEAR(stats.Column("x")->ndv, 150.0, 5.0);
}

TEST(StatsManagerTest, PutGetRemove) {
  StatsManager manager;
  EXPECT_FALSE(manager.Has("t"));
  EXPECT_EQ(manager.Get("t"), nullptr);
  TableStats stats;
  stats.row_count = 7;
  manager.Put("t", stats);
  ASSERT_TRUE(manager.Has("t"));
  EXPECT_EQ(manager.Get("t")->row_count, 7u);
  EXPECT_EQ(manager.TableNames(), std::vector<std::string>{"t"});
  manager.Remove("t");
  EXPECT_FALSE(manager.Has("t"));
  manager.Put("a", stats);
  manager.Clear();
  EXPECT_TRUE(manager.TableNames().empty());
}

TEST(StatsManagerTest, PutOverwrites) {
  StatsManager manager;
  TableStats s1, s2;
  s1.row_count = 1;
  s2.row_count = 2;
  manager.Put("t", s1);
  manager.Put("t", s2);
  EXPECT_EQ(manager.Get("t")->row_count, 2u);
}

}  // namespace
}  // namespace dynopt
