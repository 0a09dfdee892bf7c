// Tests for the three regressors (kNN, random forest, gradient boosting):
// exact-fit sanity, generalization on synthetic functions, determinism,
// multi-output behaviour, and a parameterized cross-model sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "core/evalcache.hpp"
#include "core/models.hpp"
#include "measure/corpus.hpp"
#include "measure/system_model.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"
#include "ml/sorted_columns.hpp"
#include "ml/tree.hpp"
#include "obs/obs.hpp"

namespace varpred::ml {
namespace {

// Synthetic regression problem: y0 = 2*x0 + x1^2, y1 = sin-free smooth mix.
struct Problem {
  Matrix x_train;
  Matrix y_train;
  Matrix x_test;
  Matrix y_test;
};

Problem make_problem(std::size_t n_train, std::size_t n_test,
                     std::uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  auto make = [&](std::size_t n, Matrix& x, Matrix& y) {
    x = Matrix(n, 3);
    y = Matrix(n, 2);
    for (std::size_t r = 0; r < n; ++r) {
      const double a = rng.uniform(-1.0, 1.0);
      const double b = rng.uniform(-1.0, 1.0);
      const double c = rng.uniform(-1.0, 1.0);
      x(r, 0) = a;
      x(r, 1) = b;
      x(r, 2) = c;
      y(r, 0) = 2.0 * a + b * b + noise * rng.uniform(-1.0, 1.0);
      y(r, 1) = a * b + 0.5 * c + noise * rng.uniform(-1.0, 1.0);
    }
  };
  Problem p;
  make(n_train, p.x_train, p.y_train);
  make(n_test, p.x_test, p.y_test);
  return p;
}

TEST(Knn, ExactNeighborRecovery) {
  // With k=1 and train points far apart, prediction equals nearest target.
  const auto x = Matrix::from_rows({{0, 0}, {10, 0}, {0, 10}});
  const auto y = Matrix::from_rows({{1, -1}, {2, -2}, {3, -3}});
  KnnParams params;
  params.k = 1;
  params.metric = Metric::kEuclidean;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const auto p = knn.predict(std::vector<double>{9.0, 1.0});
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], -2.0);
}

TEST(Knn, AveragesKNeighbors) {
  const auto x = Matrix::from_rows({{0.0}, {1.0}, {100.0}});
  const auto y = Matrix::from_rows({{0.0}, {2.0}, {50.0}});
  KnnParams params;
  params.k = 2;
  params.metric = Metric::kEuclidean;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const auto p = knn.predict(std::vector<double>{0.4});
  EXPECT_DOUBLE_EQ(p[0], 1.0);  // mean of 0 and 2
}

TEST(Knn, CosineIsScaleInvariant) {
  // Under cosine distance (without standardization), scaled copies of a
  // vector are identical.
  const auto x = Matrix::from_rows({{1.0, 2.0}, {-3.0, 1.0}});
  const auto y = Matrix::from_rows({{1.0}, {2.0}});
  KnnParams params;
  params.k = 1;
  params.metric = Metric::kCosine;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{10.0, 20.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.1, 0.2})[0], 1.0);
}

TEST(Knn, KLargerThanTrainingSetIsClamped) {
  const auto x = Matrix::from_rows({{0.0}, {1.0}});
  const auto y = Matrix::from_rows({{2.0}, {4.0}});
  KnnParams params;
  params.k = 15;
  KnnRegressor knn(params);
  knn.fit(x, y);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.5})[0], 3.0);
}

TEST(Knn, NeighborsSortedByDistance) {
  const auto x = Matrix::from_rows({{5.0}, {1.0}, {3.0}});
  const auto y = Matrix::from_rows({{0.0}, {0.0}, {0.0}});
  KnnParams params;
  params.k = 3;
  params.metric = Metric::kEuclidean;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const auto nn = knn.neighbors(std::vector<double>{0.0});
  EXPECT_EQ(nn, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Knn, ZeroNormCosineQueryUsesStableIndexTieBreak) {
  // S3: a zero-norm query under cosine distance puts every training row at
  // exactly 1.0. The documented tie-break (ascending row index) must make
  // the neighbor set and the prediction deterministic.
  const auto x = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 1}});
  const auto y = Matrix::from_rows({{10}, {20}, {30}, {40}, {50}});
  KnnParams params;
  params.k = 3;
  params.metric = Metric::kCosine;
  params.standardize = false;
  KnnRegressor knn(params);
  knn.fit(x, y);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_EQ(knn.neighbors(zero), (std::vector<std::size_t>{0, 1, 2}));
  // Uniform weighting averages the first k targets.
  EXPECT_DOUBLE_EQ(knn.predict(zero)[0], 20.0);
  // Distance weighting is uniform too (all weights 1/(1 + 1e-9)).
  KnnParams wp = params;
  wp.weighting = KnnWeighting::kDistance;
  KnnRegressor wknn(wp);
  wknn.fit(x, y);
  EXPECT_NEAR(wknn.predict(zero)[0], 20.0, 1e-9);
}

TEST(Tree, FitsConstantTarget) {
  const auto x = Matrix::from_rows({{1}, {2}, {3}});
  const auto y = Matrix::from_rows({{7}, {7}, {7}});
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.leaf_count(), 1u);  // pure node: no split
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.5})[0], 7.0);
}

TEST(Tree, LearnsAStepFunctionExactly) {
  Matrix x(20, 1);
  Matrix y(20, 1);
  for (int i = 0; i < 20; ++i) {
    x(i, 0) = i;
    y(i, 0) = i < 10 ? -1.0 : 1.0;
  }
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0})[0], -1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{15.0})[0], 1.0);
  EXPECT_EQ(tree.leaf_count(), 2u);
}

TEST(Tree, RespectsMaxDepth) {
  Matrix x(64, 1);
  Matrix y(64, 1);
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    x(i, 0) = i;
    y(i, 0) = rng.uniform();
  }
  TreeParams params;
  params.max_depth = 3;
  RegressionTree tree(params);
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 3u);
  EXPECT_LE(tree.leaf_count(), 8u);
}

TEST(Tree, RespectsMinSamplesLeaf) {
  Matrix x(30, 1);
  Matrix y(30, 1);
  for (int i = 0; i < 30; ++i) {
    x(i, 0) = i;
    y(i, 0) = i;  // forces many splits if unconstrained
  }
  TreeParams params;
  params.max_depth = 32;
  params.min_samples_leaf = 5;
  RegressionTree tree(params);
  tree.fit(x, y);
  EXPECT_LE(tree.leaf_count(), 6u);  // 30 / 5
}

TEST(Tree, MultiOutputSplitsJointly) {
  const auto p = make_problem(300, 100, 11);
  TreeParams params;
  params.max_depth = 8;
  RegressionTree tree(params);
  tree.fit(p.x_train, p.y_train);
  const auto pred = tree.predict_batch(p.x_test);
  EXPECT_GT(r2(p.y_test.col(0), pred.col(0)), 0.7);
  EXPECT_GT(r2(p.y_test.col(1), pred.col(1)), 0.5);
}

// Quantized features create many tied values, which is where the presorted
// segment scans and the per-node sorts could diverge if the tie-break or
// partition stability were wrong.
Problem make_tied_problem(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed) {
  Problem p = make_problem(n_train, n_test, seed, /*noise=*/0.2);
  auto quantize = [](Matrix& m) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        m(r, c) = std::floor(m(r, c) * 4.0) / 4.0;
      }
    }
  };
  quantize(p.x_train);
  quantize(p.x_test);
  return p;
}

// Split-search stress shape: quantized features (many ties), a globally
// constant column, a coarse copy of feature 0 (constant inside every node
// that splits x0 finely) and a column equal to feature 1 (tied candidates
// across features), with `k` targets mixing the inputs differently.
Problem make_hard_problem(std::size_t n_train, std::size_t n_test,
                          std::uint64_t seed, std::size_t k) {
  const Problem base = make_tied_problem(n_train, n_test, seed);
  auto widen = [k](const Matrix& x, Matrix& wide, Matrix& y) {
    wide = Matrix(x.rows(), 6);
    y = Matrix(x.rows(), k);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const double a = x(r, 0);
      const double b = x(r, 1);
      const double c = x(r, 2);
      wide(r, 0) = a;
      wide(r, 1) = b;
      wide(r, 2) = c;
      wide(r, 3) = 1.0;
      wide(r, 4) = std::floor(a * 2.0) / 2.0;
      wide(r, 5) = b;
      for (std::size_t j = 0; j < k; ++j) {
        const double w = static_cast<double>(j + 1);
        y(r, j) = (j % 3 == 0)   ? w * a + b * b
                  : (j % 3 == 1) ? a * b - c / w
                                 : std::floor(w * c) + 0.5 * a;
      }
    }
  };
  Problem p;
  widen(base.x_train, p.x_train, p.y_train);
  widen(base.x_test, p.x_test, p.y_test);
  return p;
}

constexpr std::size_t kOutputWidths[] = {1, 4, 16};

void expect_same_predictions(const Regressor& a, const Regressor& b,
                             const Matrix& x, std::size_t k) {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(a.predict(x.row(r)), b.predict(x.row(r)))
        << "K=" << k << " row " << r;
  }
}

TEST(Tree, PresortedSegmentModeIsByteIdenticalToSortPath) {
  // The tentpole invariant at tree level: fitting with a dataset-level
  // SortedColumns artifact (segment scans + stable partitions) must produce
  // exactly the tree the per-node sort path produces.
  const auto p = make_tied_problem(200, 60, 41);
  TreeParams params;
  params.max_depth = 8;
  RegressionTree plain(params);
  plain.fit(p.x_train, p.y_train);  // no hint: per-node sorts
  RegressionTree presorted(params);
  presorted.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x_train)));
  presorted.fit(p.x_train, p.y_train);
  EXPECT_EQ(plain.leaf_count(), presorted.leaf_count());
  EXPECT_EQ(plain.depth(), presorted.depth());
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(plain.predict(p.x_test.row(r)),
              presorted.predict(p.x_test.row(r)))
        << "row " << r;
  }

  // Production depth, constant-in-node columns, K in {1, 4, 16}.
  for (const std::size_t k : kOutputWidths) {
    const auto h = make_hard_problem(160, 60, 42 + k, k);
    TreeParams deep;
    deep.max_depth = 24;
    RegressionTree sorted_tree(deep);
    sorted_tree.fit(h.x_train, h.y_train);
    RegressionTree segment_tree(deep);
    segment_tree.set_presorted(std::make_shared<const SortedColumns>(
        SortedColumns::build(h.x_train)));
    segment_tree.fit(h.x_train, h.y_train);
    EXPECT_EQ(sorted_tree.node_count(), segment_tree.node_count()) << k;
    expect_same_predictions(sorted_tree, segment_tree, h.x_test, k);
  }
}

TEST(Tree, FilteredBootstrapArtifactIsByteIdenticalToSortPath) {
  // fit_rows over a duplicated (bootstrap) sample: the tree's counted filter
  // of the dataset artifact must reproduce the per-node sorts of the sample.
  const auto p = make_tied_problem(120, 40, 43);
  const auto base = SortedColumns::build(p.x_train);
  Rng rng(77);
  std::vector<std::size_t> rows(p.x_train.rows());
  for (auto& r : rows) r = rng.uniform_index(p.x_train.rows());
  std::sort(rows.begin(), rows.end());
  TreeParams params;
  params.max_depth = 8;
  RegressionTree plain(params);
  plain.fit_rows(p.x_train, p.y_train, rows);
  RegressionTree filtered(params);
  filtered.fit_rows(p.x_train, p.y_train, rows, &base);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(plain.predict(p.x_test.row(r)),
              filtered.predict(p.x_test.row(r)))
        << "row " << r;
  }

  // Production depth, constant-in-node columns, K in {1, 4, 16}.
  for (const std::size_t k : kOutputWidths) {
    const auto h = make_hard_problem(140, 50, 44 + k, k);
    const auto hbase = SortedColumns::build(h.x_train);
    Rng hrng(78 + k);
    std::vector<std::size_t> sample(h.x_train.rows());
    for (auto& r : sample) r = hrng.uniform_index(h.x_train.rows());
    std::sort(sample.begin(), sample.end());
    TreeParams deep;
    deep.max_depth = 24;
    RegressionTree sorted_tree(deep);
    sorted_tree.fit_rows(h.x_train, h.y_train, sample);
    RegressionTree segment_tree(deep);
    segment_tree.fit_rows(h.x_train, h.y_train, sample, &hbase);
    EXPECT_EQ(sorted_tree.node_count(), segment_tree.node_count()) << k;
    expect_same_predictions(sorted_tree, segment_tree, h.x_test, k);
  }
}

TEST(Tree, RejectsMismatchedPresortedArtifact) {
  const auto p = make_problem(50, 5, 47);
  RegressionTree tree;
  // Artifact over a different row count than the fit sample.
  Matrix other(10, p.x_train.cols());
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < other.cols(); ++c) other(r, c) = double(r + c);
  }
  tree.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(other)));
  EXPECT_THROW(tree.fit(p.x_train, p.y_train), std::invalid_argument);
  // The hint applies to one fit only: the next fit must succeed cold.
  EXPECT_NO_THROW(tree.fit(p.x_train, p.y_train));

  // A sample-level order of a bootstrap sample has the dataset's length but
  // lists duplicated rows: fit_rows must reject it, not overrun.
  std::vector<std::size_t> rows(p.x_train.rows(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i / 2;
  const SortedColumns sample =
      SortedColumns::build(p.x_train).filtered(rows, /*remap=*/false);
  EXPECT_THROW(tree.fit_rows(p.x_train, p.y_train, rows, &sample),
               std::invalid_argument);
  // The same with one row drawn for the whole sample (count 50 per entry).
  const std::vector<std::size_t> same(p.x_train.rows(), 3);
  const SortedColumns repeated =
      SortedColumns::build(p.x_train).filtered(same, /*remap=*/false);
  EXPECT_THROW(tree.fit_rows(p.x_train, p.y_train, same, &repeated),
               std::invalid_argument);
}

// Fit-layer counters on a hand-computable fit: 4 rows, feature 0 = 0..3,
// feature 1 constant, targets {0, 1, 5, 6}. The tree splits the root
// between 1 and 5 and each child once more: 7 nodes, 3 scans of feature 0
// (feature 1 is constant in every node and skipped), 4 + 2 + 2 rows scanned
// and partitioned. XGBoost (one round, depth 2) splits the root the same
// way; both children scan but find no positive gain: 3 nodes, 3 scans,
// 8 rows scanned, 4 partitioned.
class ScopedObsSummary {
 public:
  ScopedObsSummary() {
    obs::reset();
    obs::set_mode(obs::Mode::kSummary);
  }
  ScopedObsSummary(const ScopedObsSummary&) = delete;
  ScopedObsSummary& operator=(const ScopedObsSummary&) = delete;
  ~ScopedObsSummary() {
    obs::set_mode(obs::Mode::kOff);
    obs::reset();
  }
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(FitCounters, TreeCountsNodesScansAndRowsBothPaths) {
  const auto x = Matrix::from_rows({{0, 7}, {1, 7}, {2, 7}, {3, 7}});
  const auto y = Matrix::from_rows({{0}, {1}, {5}, {6}});
  for (const bool presorted : {false, true}) {
    const ScopedObsSummary obs_on;
    RegressionTree tree;
    if (presorted) {
      tree.set_presorted(
          std::make_shared<const SortedColumns>(SortedColumns::build(x)));
    }
    tree.fit(x, y);
    ASSERT_EQ(tree.node_count(), 7u);
    EXPECT_EQ(counter("ml.tree.nodes"), 7u) << presorted;
    EXPECT_EQ(counter("ml.tree.feature_scans"), 3u) << presorted;
    EXPECT_EQ(counter("ml.tree.rows_scanned"), 8u) << presorted;
    EXPECT_EQ(counter("ml.tree.rows_partitioned"), 8u) << presorted;
  }
}

TEST(FitCounters, GbtCountsNodesScansAndRows) {
  const auto x = Matrix::from_rows({{0, 7}, {1, 7}, {2, 7}, {3, 7}});
  const auto y = Matrix::from_rows({{0}, {1}, {5}, {6}});
  const ScopedObsSummary obs_on;
  GbtParams gp;
  gp.n_rounds = 1;
  gp.max_depth = 2;
  gp.subsample = 1.0;
  gp.colsample = 1.0;
  GradientBoosting gbt(gp);
  gbt.fit(x, y);
  EXPECT_EQ(counter("ml.gbt.nodes"), 3u);
  EXPECT_EQ(counter("ml.gbt.feature_scans"), 3u);
  EXPECT_EQ(counter("ml.gbt.rows_scanned"), 8u);
  EXPECT_EQ(counter("ml.gbt.rows_partitioned"), 4u);
}

TEST(FitCounters, OffModeCountsNothing) {
  obs::set_mode(obs::Mode::kOff);
  obs::reset();
  const auto p = make_problem(40, 1, 3);
  RegressionTree tree;
  tree.fit(p.x_train, p.y_train);
  EXPECT_EQ(counter("ml.tree.nodes"), 0u);
  EXPECT_EQ(counter("ml.tree.rows_scanned"), 0u);
}

TEST(Forest, OutperformsOrMatchesSingleTreeOnNoisyData) {
  const auto p = make_problem(300, 200, 13, /*noise=*/0.3);
  TreeParams tp;
  tp.max_depth = 8;
  RegressionTree tree(tp);
  tree.fit(p.x_train, p.y_train);
  const auto tree_pred = tree.predict_batch(p.x_test);
  const double tree_r2 = r2(p.y_test.col(0), tree_pred.col(0));

  ForestParams fp;
  fp.n_trees = 60;
  fp.tree.max_depth = 8;
  fp.seed = 21;
  RandomForest forest(fp);
  forest.fit(p.x_train, p.y_train);
  const auto forest_pred = forest.predict_batch(p.x_test);
  const double forest_r2 = r2(p.y_test.col(0), forest_pred.col(0));

  EXPECT_GT(forest_r2, 0.75);
  EXPECT_GE(forest_r2, tree_r2 - 0.02);
}

TEST(Forest, DeterministicAcrossFits) {
  const auto p = make_problem(100, 10, 17);
  ForestParams fp;
  fp.n_trees = 20;
  fp.seed = 5;
  RandomForest a(fp);
  RandomForest b(fp);
  a.fit(p.x_train, p.y_train);
  b.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(a.predict(p.x_test.row(r)), b.predict(p.x_test.row(r)));
  }
}

TEST(Forest, SharedPresortedArtifactIsByteIdentical) {
  // A caller-provided dataset artifact (the evaluator's fold cache) must not
  // change a single prediction relative to the forest building its own.
  const auto p = make_tied_problem(150, 40, 53);
  ForestParams fp;
  fp.n_trees = 25;
  fp.tree.max_depth = 8;
  fp.bootstrap = true;
  fp.feature_fraction = 1.0;
  fp.seed = 11;
  RandomForest own(fp);
  own.fit(p.x_train, p.y_train);
  RandomForest shared(fp);
  shared.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x_train)));
  shared.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(own.predict(p.x_test.row(r)), shared.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(Forest, FeatureSubsamplingIgnoresPresortedHintSafely) {
  // With feature_fraction < 1 splits only see a random feature subset, so
  // segment mode does not apply; a stale hint must be ignored, not crash or
  // change results.
  const auto p = make_tied_problem(120, 30, 59);
  ForestParams fp;
  fp.n_trees = 15;
  fp.tree.max_depth = 6;
  fp.bootstrap = true;
  fp.feature_fraction = 0.5;
  fp.seed = 13;
  RandomForest plain(fp);
  plain.fit(p.x_train, p.y_train);
  RandomForest hinted(fp);
  hinted.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x_train)));
  hinted.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(plain.predict(p.x_test.row(r)), hinted.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(Gbt, SegmentModeIsByteIdenticalToSortPath) {
  // subsample == 1 runs the node-partitioned segment scans; a subsample just
  // below 1 rounds to the full row set (no RNG draws, identical training
  // data) but takes the per-node sort path. Predictions must match exactly.
  const auto p = make_tied_problem(150, 40, 61);
  GbtParams seg;
  seg.n_rounds = 40;
  seg.subsample = 1.0;
  seg.colsample = 1.0;
  GbtParams sort_path = seg;
  sort_path.subsample = 0.999999;  // llround(0.999999 * 150) == 150
  GradientBoosting a(seg);
  GradientBoosting b(sort_path);
  a.fit(p.x_train, p.y_train);
  b.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(a.predict(p.x_test.row(r)), b.predict(p.x_test.row(r)))
        << "row " << r;
  }

  // Depth 24, duplicated training rows (a bootstrap-style multiset gathered
  // into the matrix), constant-in-node columns, K in {1, 4, 16}.
  for (const std::size_t k : kOutputWidths) {
    const auto h = make_hard_problem(120, 50, 62 + k, k);
    Rng hrng(63 + k);
    std::vector<std::size_t> sample(h.x_train.rows());
    for (auto& r : sample) r = hrng.uniform_index(h.x_train.rows());
    std::sort(sample.begin(), sample.end());
    const Matrix xs = h.x_train.gather_rows(sample);
    const Matrix ys = h.y_train.gather_rows(sample);
    GbtParams deep = seg;
    deep.n_rounds = 12;
    deep.max_depth = 24;
    deep.learning_rate = 0.3;
    GbtParams deep_sort = deep;
    deep_sort.subsample = 0.999999;
    GradientBoosting segment_gbt(deep);
    GradientBoosting sorted_gbt(deep_sort);
    segment_gbt.fit(xs, ys);
    sorted_gbt.fit(xs, ys);
    expect_same_predictions(sorted_gbt, segment_gbt, h.x_test, k);
  }
}

TEST(Gbt, FilteredScanPathIsByteIdenticalToSortPath) {
  // With colsample < 1 (segment mode off) the shared-rows fit scans the
  // fit-level sorted orders with an in-node filter; the same near-1
  // subsample trick pins it against the per-node sort path.
  const auto p = make_tied_problem(150, 40, 67);
  GbtParams filtered;
  filtered.n_rounds = 40;
  filtered.subsample = 1.0;
  filtered.colsample = 0.67;  // 2 of 3 columns per tree
  GbtParams sort_path = filtered;
  sort_path.subsample = 0.999999;
  GradientBoosting a(filtered);
  GradientBoosting b(sort_path);
  a.fit(p.x_train, p.y_train);
  b.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(a.predict(p.x_test.row(r)), b.predict(p.x_test.row(r)))
        << "row " << r;
  }
}

TEST(Gbt, SharedPresortedArtifactIsByteIdentical) {
  const auto p = make_tied_problem(150, 40, 71);
  GbtParams gp;
  gp.n_rounds = 30;
  gp.subsample = 1.0;
  gp.colsample = 1.0;
  GradientBoosting own(gp);
  own.fit(p.x_train, p.y_train);
  GradientBoosting shared(gp);
  shared.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x_train)));
  shared.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(own.predict(p.x_test.row(r)), shared.predict(p.x_test.row(r)))
        << "row " << r;
  }
  // Mismatched artifacts are rejected, and the hint never outlives one fit.
  GradientBoosting bad(gp);
  Matrix other(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    other(r, 0) = static_cast<double>(r);
    other(r, 1) = static_cast<double>(10 - r);
  }
  bad.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(other)));
  EXPECT_THROW(bad.fit(p.x_train, p.y_train), std::invalid_argument);
  EXPECT_NO_THROW(bad.fit(p.x_train, p.y_train));
}

TEST(Gbt, FitsTrainingDataClosely) {
  const auto p = make_problem(200, 50, 19);
  GbtParams gp;
  gp.n_rounds = 150;
  gp.learning_rate = 0.2;
  gp.subsample = 1.0;
  gp.colsample = 1.0;
  GradientBoosting gbt(gp);
  gbt.fit(p.x_train, p.y_train);
  const auto pred = gbt.predict_batch(p.x_train);
  EXPECT_GT(r2(p.y_train.col(0), pred.col(0)), 0.97);
}

TEST(Gbt, GeneralizesOnSmoothFunction) {
  const auto p = make_problem(400, 200, 23, /*noise=*/0.1);
  GradientBoosting gbt;  // defaults
  gbt.fit(p.x_train, p.y_train);
  const auto pred = gbt.predict_batch(p.x_test);
  EXPECT_GT(r2(p.y_test.col(0), pred.col(0)), 0.8);
  EXPECT_GT(r2(p.y_test.col(1), pred.col(1)), 0.6);
}

TEST(Gbt, ShrinkageReducesOverfitVsSingleBigStep) {
  const auto p = make_problem(150, 150, 29, /*noise=*/0.4);
  GbtParams fast;
  fast.n_rounds = 5;
  fast.learning_rate = 1.0;
  GbtParams slow;
  slow.n_rounds = 100;
  slow.learning_rate = 0.1;
  GradientBoosting a(fast);
  GradientBoosting b(slow);
  a.fit(p.x_train, p.y_train);
  b.fit(p.x_train, p.y_train);
  const double r2_fast = r2(p.y_test.col(0), a.predict_batch(p.x_test).col(0));
  const double r2_slow = r2(p.y_test.col(0), b.predict_batch(p.x_test).col(0));
  EXPECT_GE(r2_slow, r2_fast - 0.02);
}

TEST(AllModels, CloneIsIndependentAndEquivalent) {
  const auto p = make_problem(100, 20, 31);
  std::vector<std::unique_ptr<Regressor>> models;
  models.push_back(std::make_unique<KnnRegressor>());
  models.push_back(std::make_unique<RandomForest>(
      ForestParams{.n_trees = 10, .tree = {}, .bootstrap = true,
                   .feature_fraction = 1.0, .seed = 3}));
  models.push_back(std::make_unique<GradientBoosting>(
      GbtParams{.n_rounds = 10}));
  for (auto& m : models) {
    m->fit(p.x_train, p.y_train);
    auto copy = m->clone();
    EXPECT_TRUE(copy->trained());
    for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
      EXPECT_EQ(m->predict(p.x_test.row(r)), copy->predict(p.x_test.row(r)))
          << m->name();
    }
  }
}

TEST(AllModels, RejectMismatchedFit) {
  const auto x = Matrix::from_rows({{1, 2}, {3, 4}});
  const auto y = Matrix::from_rows({{1}});
  KnnRegressor knn;
  EXPECT_THROW(knn.fit(x, y), std::invalid_argument);
  RandomForest forest;
  EXPECT_THROW(forest.fit(x, y), std::invalid_argument);
  GradientBoosting gbt;
  EXPECT_THROW(gbt.fit(x, y), std::invalid_argument);
}

TEST(AllModels, PredictBeforeFitThrows) {
  KnnRegressor knn;
  EXPECT_THROW(knn.predict(std::vector<double>{1.0}), CheckError);
  RandomForest forest;
  EXPECT_THROW(forest.predict(std::vector<double>{1.0}), CheckError);
  GradientBoosting gbt;
  EXPECT_THROW(gbt.predict(std::vector<double>{1.0}), CheckError);
}

// Parameterized sweep: every model should beat the predict-the-mean baseline
// on the smooth synthetic problem.
class ModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModelSweep, BeatsMeanBaseline) {
  const auto p = make_problem(250, 150, 37, /*noise=*/0.2);
  std::unique_ptr<Regressor> model;
  switch (GetParam()) {
    case 0:
      model = std::make_unique<KnnRegressor>(
          KnnParams{.k = 10, .metric = Metric::kEuclidean,
                    .weighting = KnnWeighting::kDistance,
                    .standardize = true});
      break;
    case 1:
      model = std::make_unique<RandomForest>(
          ForestParams{.n_trees = 50, .tree = {}, .bootstrap = true,
                       .feature_fraction = 1.0, .seed = 9});
      break;
    default:
      model = std::make_unique<GradientBoosting>();
      break;
  }
  model->fit(p.x_train, p.y_train);
  const auto pred = model->predict_batch(p.x_test);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_GT(r2(p.y_test.col(c), pred.col(c)), 0.35)
        << model->name() << " output " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(KnnRfGbt, ModelSweep, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Production-shape golden hashes.
//
// The byte-identity tests above compare two fitting paths of the same code;
// once both share one split-search kernel they can no longer catch a change
// to that kernel. These tests pin the kernel's output itself: fold 0 of the
// intel few-runs LOGO-CV (118 training rows x 272 profile features), fitted
// with the production RF and XGBoost parameters, and every corpus row's
// prediction hashed with FNV-1a-64. The targets are 4-wide PearsonRnd
// moments, plus 40-wide Histogram and 16-wide Quantile encodings for RF,
// whose scan kernel depends on the target width. The constants were
// computed before the column-segment kernel rewrite; any drift in a single
// prediction bit fails them.

std::uint64_t fnv1a64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct GoldenFold {
  core::FewRunsEvalCache cache;
  Matrix x;
  Matrix y;
  std::shared_ptr<const SortedColumns> presorted;
};

GoldenFold make_golden_fold(core::ReprKind repr) {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::intel(), 1000, 7);
  GoldenFold g;
  core::FewRunsConfig config;
  config.repr = repr;
  config.model = core::ModelKind::kRandomForest;  // cache carries presorted
  g.cache = core::FewRunsEvalCache::build(corpus, config);
  std::vector<std::size_t> train;
  for (std::size_t b = 1; b < corpus.benchmarks.size(); ++b) {
    train.push_back(b);
  }
  const auto rows = g.cache.rows_for(train);
  g.x = g.cache.features.gather_rows(rows);
  for (const std::size_t b : train) {
    for (std::size_t rep = 0; rep < g.cache.replicates; ++rep) {
      g.y.push_row(g.cache.targets[b]);
    }
  }
  g.presorted = std::make_shared<const SortedColumns>(
      g.cache.presorted->filtered(rows, /*remap=*/true));
  return g;
}

const GoldenFold& golden_fold(core::ReprKind repr) {
  switch (repr) {
    case core::ReprKind::kHistogram: {
      static const GoldenFold fold = make_golden_fold(repr);
      return fold;
    }
    case core::ReprKind::kQuantile: {
      static const GoldenFold fold = make_golden_fold(repr);
      return fold;
    }
    default: {
      static const GoldenFold fold =
          make_golden_fold(core::ReprKind::kPearson);
      return fold;
    }
  }
}

std::uint64_t golden_hash(core::ModelKind kind, core::ReprKind repr,
                          bool presorted) {
  const GoldenFold& g = golden_fold(repr);
  auto model = core::make_model(kind, core::FewRunsConfig{}.seed);
  if (presorted) model->set_presorted(g.presorted);
  model->fit(g.x, g.y);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t r = 0; r < g.cache.features.rows(); ++r) {
    for (const double v : model->predict(g.cache.features.row(r))) {
      h = fnv1a64(h, v);
    }
  }
  return h;
}

TEST(Golden, FoldShapeMatchesProduction) {
  const GoldenFold& g = golden_fold(core::ReprKind::kPearson);
  EXPECT_EQ(g.x.rows(), 118u);
  EXPECT_EQ(g.x.cols(), 272u);
  EXPECT_EQ(g.y.cols(), 4u);
  EXPECT_EQ(golden_fold(core::ReprKind::kHistogram).y.cols(), 40u);
  EXPECT_EQ(golden_fold(core::ReprKind::kQuantile).y.cols(), 16u);
}

constexpr std::uint64_t kGoldenRf = 0x181f891616783cb8ULL;
constexpr std::uint64_t kGoldenRfHistogram = 0x4c5e37216942708aULL;
constexpr std::uint64_t kGoldenRfQuantile = 0xbaaad7f1b8313392ULL;
constexpr std::uint64_t kGoldenXgb = 0x5caa68bb9bf0ac1dULL;

TEST(Golden, RandomForestPredictionsArePinned) {
  using core::ModelKind;
  using core::ReprKind;
  EXPECT_EQ(golden_hash(ModelKind::kRandomForest, ReprKind::kPearson, true),
            kGoldenRf);
  EXPECT_EQ(golden_hash(ModelKind::kRandomForest, ReprKind::kPearson, false),
            kGoldenRf);
  EXPECT_EQ(golden_hash(ModelKind::kRandomForest, ReprKind::kHistogram, true),
            kGoldenRfHistogram);
  EXPECT_EQ(golden_hash(ModelKind::kRandomForest, ReprKind::kQuantile, true),
            kGoldenRfQuantile);
}

TEST(Golden, XgBoostPredictionsArePinned) {
  using core::ModelKind;
  using core::ReprKind;
  EXPECT_EQ(golden_hash(ModelKind::kXgBoost, ReprKind::kPearson, true),
            kGoldenXgb);
  EXPECT_EQ(golden_hash(ModelKind::kXgBoost, ReprKind::kPearson, false),
            kGoldenXgb);
}

// The same kernels at a size far past any LOGO fold: 2048 rows of three
// continuous features (every value distinct, so far more than 256 per
// feature), two smooth targets with a little noise. RF and XGBoost are the
// production models from core::make_model; every training row's prediction
// is hashed.
struct WideProblem {
  Matrix x;
  Matrix y;
};

const WideProblem& wide_problem() {
  static const WideProblem problem = [] {
    WideProblem p;
    Rng rng(2048);
    for (std::size_t r = 0; r < 2048; ++r) {
      const double a = rng.uniform(-1.0, 1.0);
      const double b = rng.uniform(0.0, 2.0);
      const double c = rng.uniform(-3.0, 3.0);
      const std::vector<double> x = {a, b, c};
      const std::vector<double> y = {a * b + 0.1 * c + 0.05 * rng.uniform(),
                                     std::abs(c) - a * a +
                                         0.05 * rng.uniform()};
      p.x.push_row(x);
      p.y.push_row(y);
    }
    return p;
  }();
  return problem;
}

std::uint64_t wide_hash(core::ModelKind kind) {
  const WideProblem& p = wide_problem();
  auto model = core::make_model(kind, core::FewRunsConfig{}.seed);
  model->fit(p.x, p.y);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    for (const double v : model->predict(p.x.row(r))) h = fnv1a64(h, v);
  }
  return h;
}

constexpr std::uint64_t kGoldenRfWide = 0xc3a7b1479ce2686aULL;
constexpr std::uint64_t kGoldenXgbWide = 0x42cd96457e8a0342ULL;

TEST(Golden, WideMatrixPredictionsArePinned) {
  const WideProblem& p = wide_problem();
  ASSERT_GE(p.x.rows(), 2048u);
  for (std::size_t c = 0; c < p.x.cols(); ++c) {
    auto values = p.x.col(c);
    std::sort(values.begin(), values.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(values.begin(), values.end()) - values.begin());
    EXPECT_GT(distinct, 256u) << "feature " << c;
  }
  EXPECT_EQ(wide_hash(core::ModelKind::kRandomForest), kGoldenRfWide);
  EXPECT_EQ(wide_hash(core::ModelKind::kXgBoost), kGoldenXgbWide);
}


// ---------------------------------------------------------------------------
// The exact split search at wide shapes.
//
// `varpred tune` with large --train-configs/--train-benchmarks fits
// thousands of rows with hundreds of distinct values per feature, far past a
// LOGO fold's ~118. These cases pin the exact search's invariants there and
// on the shapes that stress it: a supplied or filtered artifact changes no
// bit, duplicated or permuted rows fit the multiset they describe, and tied
// values split only halfway between distinct values.

// Three continuous features (all values distinct) and two integer-valued
// targets. Integer partial sums are exact, so a fit's result cannot depend
// on the order in which its scan adds rows up.
Problem make_integer_problem(std::size_t n_train, std::size_t n_test,
                             std::uint64_t seed) {
  Problem p = make_problem(n_train, n_test, seed);
  auto integerize = [](const Matrix& x, Matrix& y) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      y(r, 0) = std::floor(8.0 * x(r, 0) + 4.0 * x(r, 1) * x(r, 1));
      y(r, 1) = std::floor(6.0 * x(r, 0) * x(r, 1) - 3.0 * x(r, 2));
    }
  };
  integerize(p.x_train, p.y_train);
  integerize(p.x_test, p.y_test);
  return p;
}

std::vector<std::size_t> sorted_bootstrap(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> rows(n);
  for (auto& r : rows) r = rng.uniform_index(n);
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(Tree, WideMatrixFitsEveryDistinctTrainingRowExactly) {
  // Unbounded depth on all-distinct features: every leaf ends pure, so each
  // training row predicts its own targets bit for bit.
  const WideProblem& p = wide_problem();
  TreeParams params;
  params.max_depth = 64;
  RegressionTree tree(params);
  tree.fit(p.x, p.y);
  EXPECT_EQ(tree.leaf_count(), p.x.rows());
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    const auto row = p.y.row(r);
    EXPECT_EQ(tree.predict(p.x.row(r)),
              std::vector<double>(row.begin(), row.end()))
        << "row " << r;
  }
}

TEST(Tree, WideMatrixPresortedHintIsByteIdentical) {
  const WideProblem& p = wide_problem();
  RegressionTree plain;
  plain.fit(p.x, p.y);
  RegressionTree hinted;
  hinted.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x)));
  hinted.fit(p.x, p.y);
  EXPECT_EQ(plain.node_count(), hinted.node_count());
  expect_same_predictions(plain, hinted, p.x, p.y.cols());
}

TEST(Tree, WideBootstrapFilteredArtifactIsByteIdentical) {
  const WideProblem& p = wide_problem();
  const auto base = SortedColumns::build(p.x);
  const auto rows = sorted_bootstrap(p.x.rows(), 2049);
  RegressionTree plain;
  plain.fit_rows(p.x, p.y, rows);
  RegressionTree filtered;
  filtered.fit_rows(p.x, p.y, rows, &base);
  EXPECT_EQ(plain.node_count(), filtered.node_count());
  expect_same_predictions(plain, filtered, p.x, p.y.cols());
}

TEST(Tree, DuplicatedRowsFitTheGatheredMultiset) {
  // fit_rows over a sample with repeats must grow the tree a fit of the
  // gathered sample matrix grows: repeats weigh in by count.
  const auto p = make_integer_problem(300, 80, 83);
  const auto rows = sorted_bootstrap(p.x_train.rows(), 84);
  TreeParams params;
  params.max_depth = 12;
  params.min_samples_leaf = 2;
  RegressionTree sampled(params);
  sampled.fit_rows(p.x_train, p.y_train, rows);
  RegressionTree gathered(params);
  gathered.fit(p.x_train.gather_rows(rows), p.y_train.gather_rows(rows));
  EXPECT_EQ(sampled.node_count(), gathered.node_count());
  expect_same_predictions(sampled, gathered, p.x_test, 2);
}

TEST(Tree, RowPermutationLeavesIntegerTargetFitUnchanged) {
  // With distinct feature values the (value, index) order does not depend
  // on row numbering, and integer sums are exact: any row order grows the
  // same tree.
  const auto p = make_integer_problem(400, 80, 85);
  std::vector<std::size_t> perm(p.x_train.rows());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(86);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.uniform_index(i + 1)]);
  }
  TreeParams params;
  params.max_depth = 10;
  RegressionTree original(params);
  original.fit(p.x_train, p.y_train);
  RegressionTree permuted(params);
  permuted.fit(p.x_train.gather_rows(perm), p.y_train.gather_rows(perm));
  EXPECT_EQ(original.node_count(), permuted.node_count());
  expect_same_predictions(original, permuted, p.x_test, 2);
}

TEST(Tree, TiedColumnSplitsHalfwayBetweenDistinctValues) {
  // 3000 rows over three distinct values: one leaf per value, thresholds at
  // the midpoints.
  Matrix x(3000, 1);
  Matrix y(3000, 1);
  for (std::size_t r = 0; r < 3000; ++r) {
    x(r, 0) = static_cast<double>(r % 3);
    y(r, 0) = 10.0 * x(r, 0);
  }
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.leaf_count(), 3u);
  EXPECT_EQ(tree.node_count(), 5u);
  const auto at = [&tree](double v) {
    return tree.predict(std::vector<double>{v})[0];
  };
  // Leaf means add row * (1/n) up row by row: 1000 rows leave a few ulps.
  EXPECT_NEAR(at(0.0), 0.0, 1e-9);
  EXPECT_NEAR(at(0.49), 0.0, 1e-9);
  EXPECT_NEAR(at(0.51), 10.0, 1e-9);
  EXPECT_NEAR(at(1.49), 10.0, 1e-9);
  EXPECT_NEAR(at(1.51), 20.0, 1e-9);
  EXPECT_NEAR(at(2.0), 20.0, 1e-9);
}

TEST(Tree, ConstantColumnChangesNoSplit) {
  // A globally constant column offers no split: the tree equals the one
  // grown without it, and the column's value in a query is never read.
  const auto p = make_integer_problem(250, 60, 87);
  auto with_constant = [](const Matrix& x, double c) {
    Matrix out(x.rows(), x.cols() + 1);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      out(r, 0) = c;
      for (std::size_t j = 0; j < x.cols(); ++j) out(r, j + 1) = x(r, j);
    }
    return out;
  };
  TreeParams params;
  params.max_depth = 9;
  RegressionTree narrow(params);
  narrow.fit(p.x_train, p.y_train);
  RegressionTree wide(params);
  wide.fit(with_constant(p.x_train, 4.0), p.y_train);
  EXPECT_EQ(narrow.node_count(), wide.node_count());
  for (const double c : {4.0, -100.0, 1e9}) {
    const Matrix q = with_constant(p.x_test, c);
    for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
      EXPECT_EQ(narrow.predict(p.x_test.row(r)), wide.predict(q.row(r)))
          << "c=" << c << " row " << r;
    }
  }
}

TEST(Tree, MinSamplesSplitGatesTheRoot) {
  Matrix x(30, 1);
  Matrix y(30, 1);
  for (int i = 0; i < 30; ++i) {
    x(i, 0) = i;
    y(i, 0) = i;
  }
  TreeParams params;
  params.min_samples_split = 31;  // the root is one row short
  RegressionTree stump(params);
  stump.fit(x, y);
  EXPECT_EQ(stump.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(stump.predict(std::vector<double>{0.0})[0], 14.5);
  params.min_samples_split = 30;  // the root splits, its children do not
  RegressionTree split(params);
  split.fit(x, y);
  EXPECT_EQ(split.leaf_count(), 2u);
}

TEST(Tree, SingleRowFitIsOneLeaf) {
  const auto x = Matrix::from_rows({{0.25, -3.0}});
  const auto y = Matrix::from_rows({{1.5, -2.75, 1e-300}});
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
  EXPECT_EQ(tree.predict(std::vector<double>{9.0, 9.0}),
            (std::vector<double>{1.5, -2.75, 1e-300}));
}

TEST(Tree, FeatureSubsetFitsDependOnlyOnTheSeed) {
  const WideProblem& p = wide_problem();
  TreeParams params;
  params.max_features = 1;
  params.seed = 7;
  RegressionTree a(params);
  RegressionTree b(params);
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  expect_same_predictions(a, b, p.x, p.y.cols());
  // The seed does steer the per-split feature draws.
  params.seed = 8;
  RegressionTree c(params);
  c.fit(p.x, p.y);
  std::size_t differing = 0;
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    differing += a.predict(p.x.row(r)) != c.predict(p.x.row(r));
  }
  EXPECT_GT(differing, 0u);
}

TEST(Forest, WideMatrixSharedPresortedIsByteIdentical) {
  const WideProblem& p = wide_problem();
  ForestParams fp;
  fp.n_trees = 16;
  fp.bootstrap = true;
  fp.feature_fraction = 1.0;
  fp.seed = 17;
  RandomForest own(fp);
  own.fit(p.x, p.y);
  RandomForest shared(fp);
  shared.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x)));
  shared.fit(p.x, p.y);
  expect_same_predictions(own, shared, p.x, p.y.cols());
}

TEST(Forest, WideMatrixFeatureSubsamplingIgnoresHintSafely) {
  const WideProblem& p = wide_problem();
  ForestParams fp;
  fp.n_trees = 16;
  fp.seed = 19;  // default feature_fraction: one of three features a split
  RandomForest plain(fp);
  plain.fit(p.x, p.y);
  RandomForest hinted(fp);
  hinted.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x)));
  hinted.fit(p.x, p.y);
  expect_same_predictions(plain, hinted, p.x, p.y.cols());
}

TEST(Forest, WithoutBootstrapEveryTreeIsTheSingleTree) {
  // No row sampling and every feature at every split leaves nothing random:
  // each tree is the single tree, and the forest averages copies of it.
  const auto p = make_integer_problem(200, 60, 89);
  ForestParams fp;
  fp.n_trees = 6;
  fp.tree.max_depth = 8;
  fp.bootstrap = false;
  fp.feature_fraction = 1.0;
  RandomForest forest(fp);
  forest.fit(p.x_train, p.y_train);
  RegressionTree tree(fp.tree);
  tree.fit(p.x_train, p.y_train);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    const auto f = forest.predict(p.x_test.row(r));
    const auto t = tree.predict(p.x_test.row(r));
    ASSERT_EQ(f.size(), t.size());
    for (std::size_t c = 0; c < t.size(); ++c) {
      EXPECT_NEAR(f[c], t[c], 1e-12 * std::max(1.0, std::abs(t[c])))
          << "row " << r << " output " << c;
    }
  }
}

TEST(Gbt, WideMatrixSharedPresortedIsByteIdentical) {
  const WideProblem& p = wide_problem();
  GbtParams gp;
  gp.n_rounds = 20;
  gp.subsample = 1.0;
  gp.colsample = 1.0;
  GradientBoosting own(gp);
  own.fit(p.x, p.y);
  GradientBoosting shared(gp);
  shared.set_presorted(
      std::make_shared<const SortedColumns>(SortedColumns::build(p.x)));
  shared.fit(p.x, p.y);
  expect_same_predictions(own, shared, p.x, p.y.cols());
}

TEST(Gbt, WideMatrixSegmentAndFilteredScansMatchSortPath) {
  // The near-1 subsample trick of SegmentModeIsByteIdenticalToSortPath at
  // 2048 rows: llround(0.999999 * 2048) == 2048, so every round still sees
  // every row but takes the per-node sort path.
  const WideProblem& p = wide_problem();
  for (const double colsample : {1.0, 0.67}) {
    GbtParams shared_rows;
    shared_rows.n_rounds = 20;
    shared_rows.subsample = 1.0;
    shared_rows.colsample = colsample;
    GbtParams sort_path = shared_rows;
    sort_path.subsample = 0.999999;
    GradientBoosting a(shared_rows);
    GradientBoosting b(sort_path);
    a.fit(p.x, p.y);
    b.fit(p.x, p.y);
    expect_same_predictions(a, b, p.x, p.y.cols());
  }
}

TEST(Gbt, TrainingErrorNeverRisesWithMoreRounds) {
  // Squared loss with optimal regularized leaf weights and shrinkage <= 1:
  // each round's tree can only lower the training error. Without row or
  // column sampling a longer fit extends a shorter one round by round.
  const auto p = make_problem(200, 1, 91, /*noise=*/0.1);
  auto training_mse = [&p](std::size_t rounds) {
    GbtParams gp;
    gp.n_rounds = rounds;
    gp.subsample = 1.0;
    gp.colsample = 1.0;
    GradientBoosting gbt(gp);
    gbt.fit(p.x_train, p.y_train);
    const auto pred = gbt.predict_batch(p.x_train);
    double sse = 0.0;
    for (std::size_t r = 0; r < p.x_train.rows(); ++r) {
      for (std::size_t c = 0; c < p.y_train.cols(); ++c) {
        const double d = pred(r, c) - p.y_train(r, c);
        sse += d * d;
      }
    }
    return sse / static_cast<double>(p.x_train.rows());
  };
  double previous = training_mse(1);
  const double first = previous;
  for (const std::size_t rounds : {2u, 4u, 8u, 16u, 32u}) {
    const double mse = training_mse(rounds);
    EXPECT_LE(mse, previous * (1.0 + 1e-12)) << rounds << " rounds";
    previous = mse;
  }
  EXPECT_LT(previous, 0.5 * first);
}

TEST(Gbt, SubsampledFitsDependOnlyOnTheSeed) {
  const auto p = make_problem(300, 60, 93, /*noise=*/0.1);
  GbtParams gp;  // default subsample and colsample: both draw per round
  gp.n_rounds = 30;
  GradientBoosting a(gp);
  GradientBoosting b(gp);
  a.fit(p.x_train, p.y_train);
  b.fit(p.x_train, p.y_train);
  expect_same_predictions(a, b, p.x_test, 2);
  gp.seed += 1;
  GradientBoosting c(gp);
  c.fit(p.x_train, p.y_train);
  std::size_t differing = 0;
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    differing += a.predict(p.x_test.row(r)) != c.predict(p.x_test.row(r));
  }
  EXPECT_GT(differing, 0u);
}

TEST(Gbt, ConstantTargetPredictsItsValue) {
  // Zero gradients everywhere: no split gains anything and every leaf
  // weight is 0, so each prediction is the base score, the exact mean.
  const auto p = make_problem(100, 30, 95);
  Matrix y(p.x_train.rows(), 2);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    y(r, 0) = 2.5;
    y(r, 1) = -1.25;
  }
  GbtParams gp;
  gp.n_rounds = 10;
  GradientBoosting gbt(gp);
  gbt.fit(p.x_train, y);
  for (std::size_t r = 0; r < p.x_test.rows(); ++r) {
    EXPECT_EQ(gbt.predict(p.x_test.row(r)), (std::vector<double>{2.5, -1.25}))
        << "row " << r;
  }
}

}  // namespace
}  // namespace varpred::ml
