// Histogram-binned training: artifact properties, binned-vs-exact oracle
// equivalence across all three tree learners, and kernel dispatch identity.
//
// Equivalence tests are byte-exact (EXPECT_EQ on doubles) by construction:
//
//   * Tree/forest problems use integer-valued targets, so every split-scan
//     partial sum is exactly representable and addition is associative —
//     the binned scan's per-bin grouping cannot round differently from the
//     exact scan's row-by-row prefix.
//   * GBT problems use all-distinct feature values, so exact binning puts
//     one row in every bin and the binned scan performs the exact scan's
//     operations in the same order — byte-identical for arbitrary
//     (non-integer) gradients.
//
// The exact oracle is pinned with VARPRED_TREE_BINNED=0, the same escape
// hatch CI's oracle cross-check job uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "ml/binned_columns.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/histkernels.hpp"
#include "ml/matrix.hpp"
#include "ml/sorted_columns.hpp"
#include "ml/tree.hpp"
#include "stats/moments.hpp"
#include "stats/welford_simd.hpp"

namespace varpred::ml {
namespace {

class ScopedBinnedOff {
 public:
  ScopedBinnedOff() { ::setenv("VARPRED_TREE_BINNED", "0", 1); }
  ~ScopedBinnedOff() { ::unsetenv("VARPRED_TREE_BINNED"); }
  ScopedBinnedOff(const ScopedBinnedOff&) = delete;
  ScopedBinnedOff& operator=(const ScopedBinnedOff&) = delete;
};

// Force-pins the binned path: the test matrices here are far below the
// auto-mode profitability threshold, where a self-building fit would
// otherwise fall back to the exact scan.
class ScopedBinnedForce {
 public:
  ScopedBinnedForce() { ::setenv("VARPRED_TREE_BINNED", "1", 1); }
  ~ScopedBinnedForce() { ::unsetenv("VARPRED_TREE_BINNED"); }
  ScopedBinnedForce(const ScopedBinnedForce&) = delete;
  ScopedBinnedForce& operator=(const ScopedBinnedForce&) = delete;
};

TEST(BinnedGateTest, ModeParsesEnvAndAppliesThreshold) {
  {
    ScopedBinnedOff off;
    EXPECT_EQ(tree_binned_mode(), TreeBinnedMode::kOff);
    EXPECT_FALSE(tree_binned_enabled());
    EXPECT_FALSE(tree_binned_profitable(1u << 20));
  }
  {
    ScopedBinnedForce force;
    EXPECT_EQ(tree_binned_mode(), TreeBinnedMode::kForce);
    EXPECT_TRUE(tree_binned_enabled());
    EXPECT_TRUE(tree_binned_profitable(2));
  }
  // Unset: auto — binned artifacts are built only above the threshold.
  EXPECT_EQ(tree_binned_mode(), TreeBinnedMode::kAuto);
  EXPECT_TRUE(tree_binned_enabled());
  EXPECT_FALSE(tree_binned_profitable(kTreeBinnedAutoRows - 1));
  EXPECT_TRUE(tree_binned_profitable(kTreeBinnedAutoRows));
}

// Integer-valued features (heavy ties) and targets: exact binning plus
// exactly-representable sums.
struct Problem {
  Matrix x_train{0, 0};
  Matrix y_train{0, 0};
  Matrix x_test{0, 0};
};

Problem make_integer_problem(std::size_t n, std::size_t n_test,
                             std::uint64_t seed, std::size_t cols = 6,
                             std::size_t outputs = 3) {
  Rng rng(seed);
  Problem p;
  p.x_train = Matrix(n, cols);
  p.y_train = Matrix(n, outputs);
  p.x_test = Matrix(n_test, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      p.x_train(r, c) = static_cast<double>(rng.uniform_index(24));
    }
    for (std::size_t c = 0; c < outputs; ++c) {
      p.y_train(r, c) = static_cast<double>(rng.uniform_index(100)) +
                        p.x_train(r, c % cols);
    }
  }
  for (std::size_t r = 0; r < n_test; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      p.x_test(r, c) = static_cast<double>(rng.uniform_index(24));
    }
  }
  return p;
}

// All-distinct continuous features: exact binning with one row per bin.
Problem make_distinct_problem(std::size_t n, std::size_t n_test,
                              std::uint64_t seed, std::size_t cols = 5) {
  Rng rng(seed);
  Problem p;
  p.x_train = Matrix(n, cols);
  p.y_train = Matrix(n, 1);
  p.x_test = Matrix(n_test, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) p.x_train(r, c) = rng.uniform();
    p.y_train(r, 0) =
        3.0 * p.x_train(r, 0) - p.x_train(r, 1) + rng.uniform(-0.2, 0.2);
  }
  for (std::size_t r = 0; r < n_test; ++r) {
    for (std::size_t c = 0; c < cols; ++c) p.x_test(r, c) = rng.uniform();
  }
  return p;
}

TEST(BinnedColumnsTest, ExactModeOneBinPerDistinctValue) {
  Matrix x(8, 2);
  const double v0[] = {3.0, 1.0, 3.0, 2.0, 1.0, 2.0, 3.0, 1.0};
  for (std::size_t r = 0; r < 8; ++r) {
    x(r, 0) = v0[r];
    x(r, 1) = 7.0;  // constant column: one bin
  }
  const auto bins = BinnedColumns::build(x);
  EXPECT_TRUE(bins.exact());
  EXPECT_EQ(bins.cols(), 2u);
  EXPECT_EQ(bins.row_count(), 8u);
  ASSERT_EQ(bins.bin_count(0), 3u);
  ASSERT_EQ(bins.bin_count(1), 1u);
  EXPECT_EQ(bins.total_bins(), 4u);
  // Codes ascend with value; each bin holds exactly one distinct value.
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(bins.code(r, 0), static_cast<std::uint8_t>(v0[r] - 1.0));
    EXPECT_EQ(bins.code(r, 1), 0);
  }
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(bins.value_min[b], static_cast<double>(b + 1));
    EXPECT_EQ(bins.value_max[b], static_cast<double>(b + 1));
  }
  EXPECT_EQ(bins.value_min[3], 7.0);
  EXPECT_EQ(bins.value_max[3], 7.0);
}

TEST(BinnedColumnsTest, QuantileModeCapsBinsAndKeepsBoundariesOrdered) {
  const std::size_t n = 1000;
  Rng rng(7);
  Matrix x(n, 1);
  for (std::size_t r = 0; r < n; ++r) x(r, 0) = rng.uniform();
  const auto bins = BinnedColumns::build(x);
  EXPECT_FALSE(bins.exact());
  ASSERT_LE(bins.bin_count(0), BinnedColumns::kMaxBins);
  ASSERT_GE(bins.bin_count(0), 2u);
  std::vector<std::size_t> counts(bins.bin_count(0), 0);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint8_t b = bins.code(r, 0);
    ASSERT_LT(b, bins.bin_count(0));
    ++counts[b];
    EXPECT_GE(x(r, 0), bins.value_min[b]);
    EXPECT_LE(x(r, 0), bins.value_max[b]);
  }
  for (std::size_t b = 0; b < bins.bin_count(0); ++b) {
    EXPECT_GT(counts[b], 0u) << "empty bin " << b;
    if (b > 0) {
      EXPECT_GT(bins.value_min[b], bins.value_max[b - 1]);
    }
  }
}

TEST(BinnedColumnsTest, BuildFromSortedMatchesSelfBuild) {
  const auto p = make_integer_problem(120, 1, 11);
  const auto a = BinnedColumns::build(p.x_train);
  const auto b = BinnedColumns::build(p.x_train,
                                      SortedColumns::build(p.x_train));
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_EQ(a.value_min, b.value_min);
  EXPECT_EQ(a.value_max, b.value_max);
  EXPECT_EQ(a.exact(), b.exact());
}

TEST(BinnedColumnsTest, RejectsMismatchedSortedArtifact) {
  const auto p = make_integer_problem(40, 1, 12);
  Matrix other(10, p.x_train.cols());
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < other.cols(); ++c) {
      other(r, c) = static_cast<double>(r + c);
    }
  }
  EXPECT_THROW(
      BinnedColumns::build(p.x_train, SortedColumns::build(other)),
      std::invalid_argument);
}

TEST(TreeBinned, MatchesExactOracleAllFeatures) {
  const auto p = make_integer_problem(140, 30, 21);
  TreeParams tp;
  tp.max_depth = 8;
  RegressionTree exact(tp);
  {
    ScopedBinnedOff oracle;
    exact.fit(p.x_train, p.y_train);
  }
  RegressionTree binned(tp);
  binned.set_binned(std::make_shared<const BinnedColumns>(
      BinnedColumns::build(p.x_train)));
  binned.fit(p.x_train, p.y_train);
  EXPECT_EQ(exact.node_count(), binned.node_count());
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(exact.predict(p.x_test.row(r)), binned.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(TreeBinned, MatchesExactOracleWithFeatureSubsets) {
  const auto p = make_integer_problem(140, 30, 22);
  TreeParams tp;
  tp.max_depth = 8;
  tp.max_features = 2;  // scratch-histogram mode
  tp.seed = 5;
  RegressionTree exact(tp);
  {
    ScopedBinnedOff oracle;
    exact.fit(p.x_train, p.y_train);
  }
  RegressionTree binned(tp);
  binned.set_binned(std::make_shared<const BinnedColumns>(
      BinnedColumns::build(p.x_train)));
  binned.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(exact.predict(p.x_test.row(r)), binned.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(TreeBinned, MatchesExactOracleOnDuplicatedRows) {
  // Bootstrap-style fit_rows: the sample is a multiset of dataset rows, the
  // artifact stays dataset-level.
  const auto p = make_integer_problem(100, 20, 23);
  Rng rng(99);
  std::vector<std::size_t> rows(p.x_train.rows());
  for (auto& r : rows) r = rng.uniform_index(p.x_train.rows());
  std::sort(rows.begin(), rows.end());
  TreeParams tp;
  tp.max_depth = 7;
  RegressionTree exact(tp);
  {
    ScopedBinnedOff oracle;
    exact.fit_rows(p.x_train, p.y_train, rows);
  }
  const auto bins = std::make_shared<const BinnedColumns>(
      BinnedColumns::build(p.x_train));
  RegressionTree binned(tp);
  binned.fit_rows(p.x_train, p.y_train, rows, nullptr, bins.get());
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(exact.predict(p.x_test.row(r)), binned.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(TreeBinned, EscapeHatchIgnoresSuppliedArtifact) {
  // With VARPRED_TREE_BINNED=0 a supplied artifact must be ignored: the fit
  // equals a plain exact fit.
  const auto p = make_integer_problem(80, 10, 24);
  RegressionTree plain;
  RegressionTree hinted;
  {
    ScopedBinnedOff oracle;
    plain.fit(p.x_train, p.y_train);
    hinted.set_binned(std::make_shared<const BinnedColumns>(
        BinnedColumns::build(p.x_train)));
    hinted.fit(p.x_train, p.y_train);
  }
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(plain.predict(p.x_test.row(r)), hinted.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(TreeBinned, RejectsMismatchedArtifact) {
  const auto p = make_integer_problem(60, 1, 25);
  Matrix other(10, p.x_train.cols());
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < other.cols(); ++c) {
      other(r, c) = static_cast<double>(r * 2 + c);
    }
  }
  RegressionTree tree;
  tree.set_binned(
      std::make_shared<const BinnedColumns>(BinnedColumns::build(other)));
  EXPECT_THROW(tree.fit(p.x_train, p.y_train), std::invalid_argument);
  // The hint never outlives one fit attempt.
  EXPECT_NO_THROW(tree.fit(p.x_train, p.y_train));
}

TEST(ForestBinned, MatchesExactOracleWithBootstrapAllFeatures) {
  const auto p = make_integer_problem(130, 25, 31);
  ForestParams fp;
  fp.n_trees = 12;
  fp.tree.max_depth = 7;
  fp.bootstrap = true;
  fp.feature_fraction = 1.0;
  fp.seed = 8;
  RandomForest exact(fp);
  {
    ScopedBinnedOff oracle;
    exact.fit(p.x_train, p.y_train);
  }
  RandomForest binned(fp);
  {
    ScopedBinnedForce force;
    binned.fit(p.x_train, p.y_train);
  }
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(exact.predict(p.x_test.row(r)), binned.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(ForestBinned, MatchesExactOracleWithFeatureFraction) {
  const auto p = make_integer_problem(130, 25, 32);
  ForestParams fp;
  fp.n_trees = 12;
  fp.tree.max_depth = 7;
  fp.bootstrap = true;
  fp.feature_fraction = 1.0 / 3.0;  // scratch-histogram mode in every tree
  fp.seed = 9;
  RandomForest exact(fp);
  {
    ScopedBinnedOff oracle;
    exact.fit(p.x_train, p.y_train);
  }
  RandomForest binned(fp);
  {
    ScopedBinnedForce force;
    binned.fit(p.x_train, p.y_train);
  }
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(exact.predict(p.x_test.row(r)), binned.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(ForestBinned, SharedBinnedArtifactIsByteIdentical) {
  const auto p = make_integer_problem(130, 25, 33);
  ForestParams fp;
  fp.n_trees = 10;
  fp.tree.max_depth = 7;
  fp.seed = 10;
  ScopedBinnedForce force;
  RandomForest own(fp);
  own.fit(p.x_train, p.y_train);
  RandomForest shared(fp);
  shared.set_binned(std::make_shared<const BinnedColumns>(
      BinnedColumns::build(p.x_train)));
  shared.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(own.predict(p.x_test.row(r)), shared.predict(p.x_test.row(r)))
        << "row " << r;
  }
  // Mismatched artifacts are rejected; the hint never outlives one fit.
  Matrix other(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    other(r, 0) = static_cast<double>(r);
    other(r, 1) = static_cast<double>(10 - r);
  }
  RandomForest bad(fp);
  bad.set_binned(
      std::make_shared<const BinnedColumns>(BinnedColumns::build(other)));
  EXPECT_THROW(bad.fit(p.x_train, p.y_train), std::invalid_argument);
  EXPECT_NO_THROW(bad.fit(p.x_train, p.y_train));
}

TEST(GbtBinned, MatchesExactOracleSharedRowsAllColumns) {
  const auto p = make_distinct_problem(150, 30, 41);
  GbtParams gp;
  gp.n_rounds = 25;
  gp.subsample = 1.0;
  gp.colsample = 1.0;
  GradientBoosting exact(gp);
  {
    ScopedBinnedOff oracle;
    exact.fit(p.x_train, p.y_train);
  }
  GradientBoosting binned(gp);
  {
    ScopedBinnedForce force;
    binned.fit(p.x_train, p.y_train);
  }
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(exact.predict(p.x_test.row(r)), binned.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(GbtBinned, MatchesExactOracleWithSubsampleAndColsample) {
  const auto p = make_distinct_problem(150, 30, 42);
  GbtParams gp;
  gp.n_rounds = 25;
  gp.subsample = 0.8;   // per-round row subsets
  gp.colsample = 0.6;   // scratch-histogram mode
  GradientBoosting exact(gp);
  {
    ScopedBinnedOff oracle;
    exact.fit(p.x_train, p.y_train);
  }
  GradientBoosting binned(gp);
  {
    ScopedBinnedForce force;
    binned.fit(p.x_train, p.y_train);
  }
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(exact.predict(p.x_test.row(r)), binned.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(GbtBinned, SharedBinnedArtifactIsByteIdentical) {
  const auto p = make_distinct_problem(150, 30, 43);
  GbtParams gp;
  gp.n_rounds = 15;
  gp.subsample = 1.0;
  gp.colsample = 1.0;
  ScopedBinnedForce force;
  GradientBoosting own(gp);
  own.fit(p.x_train, p.y_train);
  GradientBoosting shared(gp);
  shared.set_binned(std::make_shared<const BinnedColumns>(
      BinnedColumns::build(p.x_train)));
  shared.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(own.predict(p.x_test.row(r)), shared.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(HistKernelsTest, Avx2MatchesScalarBitForBit) {
  const HistKernels* avx2 = hist_kernels_avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this machine";
  Rng rng(55);
  const std::size_t n_rows = 300;
  const std::size_t n_bins = 17;
  for (const std::size_t d : {1ul, 3ul, 4ul, 5ul, 8ul, 11ul}) {
    std::vector<std::uint8_t> codes(n_rows);
    std::vector<double> y(n_rows * d);
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < n_rows; ++r) {
      codes[r] = static_cast<std::uint8_t>(rng.uniform_index(n_bins));
      for (std::size_t c = 0; c < d; ++c) y[r * d + c] = rng.uniform(-2.0, 2.0);
      if (rng.uniform() < 0.7) rows.push_back(r);
    }
    std::vector<double> cnt_s(n_bins, 0.0), sums_s(n_bins * d, 0.0);
    std::vector<double> cnt_v(n_bins, 0.0), sums_v(n_bins * d, 0.0);
    hist_kernels_scalar().add_rows(codes.data(), rows.data(), rows.size(),
                                   y.data(), d, cnt_s.data(), sums_s.data());
    avx2->add_rows(codes.data(), rows.data(), rows.size(), y.data(), d,
                   cnt_v.data(), sums_v.data());
    EXPECT_EQ(cnt_s, cnt_v) << "d=" << d;
    EXPECT_EQ(sums_s, sums_v) << "d=" << d;
    // Subtract half the rows from both: still bit-identical.
    const std::size_t half = rows.size() / 2;
    hist_kernels_scalar().sub_rows(codes.data(), rows.data(), half, y.data(),
                                   d, cnt_s.data(), sums_s.data());
    avx2->sub_rows(codes.data(), rows.data(), half, y.data(), d, cnt_v.data(),
                   sums_v.data());
    EXPECT_EQ(cnt_s, cnt_v) << "d=" << d;
    EXPECT_EQ(sums_s, sums_v) << "d=" << d;
  }
}

TEST(WelfordSimdTest, Avx2MatchesScalarBitForBit) {
  Rng rng(66);
  for (const std::size_t n : {0ul, 1ul, 3ul, 4ul, 7ul, 128ul, 1001ul}) {
    std::vector<double> sample(n);
    for (auto& v : sample) v = rng.uniform(-3.0, 3.0) + 1.5;
    const auto a = stats::accumulate_moments_scalar(sample).moments();
    const auto b = stats::accumulate_moments_avx2(sample).moments();
    EXPECT_EQ(a.mean, b.mean) << "n=" << n;
    EXPECT_EQ(a.stddev, b.stddev) << "n=" << n;
    EXPECT_EQ(a.skewness, b.skewness) << "n=" << n;
    EXPECT_EQ(a.kurtosis, b.kurtosis) << "n=" << n;
  }
}

TEST(WelfordSimdTest, LaneAccumulatorAgreesWithSerialWelford) {
  Rng rng(77);
  std::vector<double> sample(40000);
  for (auto& v : sample) v = rng.uniform(-2.0, 2.0) + 0.5;
  stats::MomentAccumulator serial;
  for (const double v : sample) serial.add(v);
  const auto s = serial.moments();
  const auto l = stats::accumulate_moments(sample).moments();
  EXPECT_EQ(l.count, s.count);
  EXPECT_NEAR(l.mean, s.mean, 1e-12 * std::abs(s.mean));
  EXPECT_NEAR(l.stddev, s.stddev, 1e-9 * s.stddev);
  EXPECT_NEAR(l.skewness, s.skewness, 1e-7);
  EXPECT_NEAR(l.kurtosis, s.kurtosis, 1e-7);
}

}  // namespace
}  // namespace varpred::ml
