// Tests for the prediction pipelines: profile construction, the two
// predictors, and the evaluator. Uses reduced corpora (fewer runs) to stay
// fast while exercising the full training/prediction paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <set>

#include "core/crosssystem.hpp"
#include "core/evalcache.hpp"
#include "core/evaluator.hpp"
#include "core/predictor.hpp"
#include "core/profile.hpp"
#include "io/serialize.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "stats/moments.hpp"
#include "stats/ks.hpp"

namespace varpred::core {
namespace {

const measure::Corpus& small_intel() {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::intel(), 200, 7);
  return corpus;
}

const measure::Corpus& small_amd() {
  static const measure::Corpus corpus =
      measure::build_corpus(measure::SystemModel::amd(), 200, 7);
  return corpus;
}

TEST(Profile, DimensionsMatchOptions) {
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[0];
  const std::vector<std::size_t> idx = {0, 1, 2};
  const auto full = build_profile(*corpus.system, runs, idx);
  EXPECT_EQ(full.size(), corpus.system->metric_count() * 4);
  ProfileOptions mean_only;
  mean_only.include_higher_moments = false;
  const auto lean = build_profile(*corpus.system, runs, idx, mean_only);
  EXPECT_EQ(lean.size(), corpus.system->metric_count());
  EXPECT_EQ(profile_feature_names(*corpus.system).size(), full.size());
}

TEST(Profile, PerSecondNormalization) {
  // A profile feature's mean must equal the mean of counter/runtime.
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[3];
  const std::vector<std::size_t> idx = {0, 5, 9};
  const auto features = build_profile(*corpus.system, runs, idx);
  double expected = 0.0;
  for (const auto r : idx) {
    expected += runs.counters(r, 0) / runs.runtimes[r] / 3.0;
  }
  EXPECT_NEAR(features[0], expected, 1e-9 * expected);
}

TEST(Profile, SingleRunHasZeroHigherMoments) {
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[0];
  const std::vector<std::size_t> idx = {4};
  const auto features = build_profile(*corpus.system, runs, idx);
  for (std::size_t m = 0; m < corpus.system->metric_count(); ++m) {
    EXPECT_DOUBLE_EQ(features[m * 4 + 1], 0.0);  // sd
    EXPECT_DOUBLE_EQ(features[m * 4 + 2], 0.0);  // skew
  }
}

TEST(Profile, InvalidArguments) {
  const auto& corpus = small_intel();
  const auto& runs = corpus.benchmarks[0];
  EXPECT_THROW(build_profile(*corpus.system, runs, std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(
      build_profile(*corpus.system, runs, std::vector<std::size_t>{99999}),
      std::invalid_argument);
}

// FNV-1a-64 over the raw bytes of every profile feature built from `corpus`:
// the full profile of each benchmark, or (k > 0) a profile over k seeded
// run indices per benchmark. Any changed bit of any feature moves the hash.
std::uint64_t profile_hash(const measure::Corpus& corpus, std::size_t k,
                           const ProfileOptions& options = {}) {
  std::vector<double> all;
  for (std::size_t b = 0; b < corpus.benchmarks.size(); ++b) {
    const auto& runs = corpus.benchmarks[b];
    std::vector<double> features;
    if (k == 0) {
      features = build_full_profile(*corpus.system, runs, options);
    } else {
      Rng rng(seed_combine(2024, b * 31 + k));
      const auto idx = choose_run_indices(runs.run_count(), k, rng);
      features = build_profile(*corpus.system, runs, idx, options);
    }
    all.insert(all.end(), features.begin(), features.end());
  }
  return io::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(all.data()), all.size() * sizeof(double)));
}

// Pins every profile bit. k = 1 takes the n < 2 branch of the moments and
// k = 2 zeroes the n - 2 factor of the third-moment update; k = 10 is the
// served probe shape and k = 0 (full profile) the cross-system row shape.
// amd has 75 metrics, an odd count, so its cases cover the per-metric
// kernel's scalar tail; intel has 68.
TEST(Profile, GoldenHashes) {
  struct Case {
    const measure::Corpus* corpus;
    std::size_t k;
    bool higher_moments;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {&small_intel(), 0, true, 0x4cda539d2982d635ULL},
      {&small_amd(), 0, true, 0xf275a2d0ce2ec347ULL},
      {&small_intel(), 1, true, 0x8b73f2942ba723ccULL},
      {&small_intel(), 2, true, 0xb171d0c91b236128ULL},
      {&small_intel(), 3, true, 0xd72c64d55cedce6dULL},
      {&small_intel(), 10, true, 0x8a3b694ec5d2949cULL},
      {&small_amd(), 10, true, 0x776b101134232176ULL},
      {&small_amd(), 10, false, 0xda1aece812943f22ULL},
  };
  for (const Case& c : cases) {
    ProfileOptions options;
    options.include_higher_moments = c.higher_moments;
    const std::uint64_t h = profile_hash(*c.corpus, c.k, options);
    EXPECT_EQ(h, c.expected)
        << c.corpus->system->name() << " k=" << c.k
        << " higher_moments=" << c.higher_moments << " hash 0x" << std::hex
        << h;
  }
}

TEST(ChooseRunIndices, DistinctAndDeterministic) {
  Rng a(5);
  Rng b(5);
  const auto x = choose_run_indices(100, 10, a);
  const auto y = choose_run_indices(100, 10, b);
  EXPECT_EQ(x, y);
  std::set<std::size_t> unique(x.begin(), x.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto i : x) EXPECT_LT(i, 100u);
  Rng c(5);
  EXPECT_THROW(choose_run_indices(5, 6, c), std::invalid_argument);
}

TEST(FewRuns, TrainPredictShapesAndDeterminism) {
  const auto& corpus = small_intel();
  FewRunsConfig config;
  config.n_probe_runs = 5;
  FewRunsPredictor predictor(config);
  EXPECT_FALSE(predictor.trained());

  std::vector<std::size_t> training(corpus.benchmarks.size() - 1);
  std::iota(training.begin(), training.end(), std::size_t{1});
  predictor.train(corpus, training);
  EXPECT_TRUE(predictor.trained());

  const auto& held = corpus.benchmarks[0];
  const std::vector<std::size_t> probe = {0, 1, 2, 3, 4};
  Rng r1(42);
  Rng r2(42);
  const auto p1 = predictor.predict_distribution(held, probe, 500, r1);
  const auto p2 = predictor.predict_distribution(held, probe, 500, r2);
  EXPECT_EQ(p1.size(), 500u);
  EXPECT_EQ(p1, p2);
  for (const double x : p1) EXPECT_TRUE(std::isfinite(x));
}

TEST(FewRuns, PredictBeforeTrainThrows) {
  FewRunsPredictor predictor;
  const auto& corpus = small_intel();
  const std::vector<std::size_t> probe = {0};
  Rng rng(1);
  EXPECT_THROW(
      predictor.predict_distribution(corpus.benchmarks[0], probe, 10, rng),
      CheckError);
}

TEST(FewRuns, ModelFactoryOverrideIsUsed) {
  const auto& corpus = small_intel();
  int factory_calls = 0;
  FewRunsConfig config;
  config.model_factory = [&factory_calls]() {
    ++factory_calls;
    ml::KnnParams params;
    params.k = 3;
    return std::make_unique<ml::KnnRegressor>(params);
  };
  FewRunsPredictor predictor(config);
  predictor.train_all(corpus);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_TRUE(predictor.trained());
}

TEST(FewRuns, PredictionBeatsCorpusMeanOnWidth) {
  // The model must at least distinguish a very narrow benchmark from a wide
  // one: predicted sd ordering should match the truth ordering.
  const auto& corpus = small_intel();
  FewRunsConfig config;
  EvalOptions options;
  const std::size_t narrow = measure::benchmark_index("rodinia/heartwall");
  const std::size_t wide = measure::benchmark_index("specaccel/303");
  const auto p_narrow =
      predict_held_out_few_runs(corpus, narrow, config, options);
  const auto p_wide = predict_held_out_few_runs(corpus, wide, config, options);
  EXPECT_LT(stats::compute_moments(p_narrow).stddev,
            stats::compute_moments(p_wide).stddev);
}

TEST(CrossSystem, TrainPredictAndFeatureLayout) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  CrossSystemConfig config;
  CrossSystemPredictor predictor(config);

  const auto features =
      predictor.make_features(*amd.system, amd.benchmarks[0]);
  EXPECT_EQ(features.size(), amd.system->metric_count() * 4 + 4);

  predictor.train_all(amd, intel);
  EXPECT_TRUE(predictor.trained());
  Rng rng(9);
  const auto predicted =
      predictor.predict_distribution(amd.benchmarks[0], 400, rng);
  EXPECT_EQ(predicted.size(), 400u);
}

TEST(CrossSystem, MismatchedCorporaRejected) {
  const auto& amd = small_amd();
  measure::Corpus truncated = small_intel();
  truncated.benchmarks.resize(10);
  CrossSystemPredictor predictor;
  std::vector<std::size_t> training = {0, 1, 2};
  EXPECT_THROW(predictor.train(amd, truncated, training),
               std::invalid_argument);
}

TEST(Evaluator, FewRunsProducesScorePerBenchmark) {
  const auto& corpus = small_intel();
  FewRunsConfig config;
  EvalOptions options;
  options.n_reconstruct = 500;
  const auto result = evaluate_few_runs(corpus, config, options);
  ASSERT_EQ(result.ks.size(), corpus.benchmarks.size());
  ASSERT_EQ(result.benchmark_names.size(), corpus.benchmarks.size());
  for (const double ks : result.ks) {
    EXPECT_GE(ks, 0.0);
    EXPECT_LE(ks, 1.0);
  }
  EXPECT_EQ(result.benchmark_names[0], "npb/bt");
  const auto s = result.summary();
  EXPECT_GT(s.mean, 0.0);
  EXPECT_LT(s.mean, 0.6);  // far better than random
}

TEST(Evaluator, CrossSystemProducesScorePerBenchmark) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  CrossSystemConfig config;
  EvalOptions options;
  options.n_reconstruct = 500;
  const auto result = evaluate_cross_system(amd, intel, config, options);
  ASSERT_EQ(result.ks.size(), intel.benchmarks.size());
  EXPECT_LT(result.mean_ks(), 0.6);
}

TEST(Evaluator, DeterministicAcrossInvocations) {
  const auto& corpus = small_intel();
  FewRunsConfig config;
  EvalOptions options;
  options.n_reconstruct = 300;
  const auto a = evaluate_few_runs(corpus, config, options);
  const auto b = evaluate_few_runs(corpus, config, options);
  EXPECT_EQ(a.ks, b.ks);
}

// Pins VARPRED_EVAL_NO_CACHE for one evaluation, restoring on scope exit so
// the rest of the suite keeps exercising the cached hot path.
class ScopedNoCache {
 public:
  ScopedNoCache() { ::setenv("VARPRED_EVAL_NO_CACHE", "1", 1); }
  ~ScopedNoCache() { ::unsetenv("VARPRED_EVAL_NO_CACHE"); }
  ScopedNoCache(const ScopedNoCache&) = delete;
  ScopedNoCache& operator=(const ScopedNoCache&) = delete;
};

// S4: the fold-level evaluation cache (shared profiles/targets/presorted
// columns) must change no score, for every distribution representation.
// EXPECT_EQ on doubles — byte-identical, not merely close.
TEST(EvalCache, FewRunsScoresMatchUncachedPathForAllReprs) {
  const auto& corpus = small_intel();
  for (const ReprKind repr :
       {ReprKind::kHistogram, ReprKind::kMaxEnt, ReprKind::kPearson,
        ReprKind::kQuantile}) {
    FewRunsConfig config;
    config.repr = repr;
    EvalOptions options;
    options.n_reconstruct = 200;
    const auto cached = evaluate_few_runs(corpus, config, options);
    EvalResult uncached;
    {
      ScopedNoCache pin;
      uncached = evaluate_few_runs(corpus, config, options);
    }
    ASSERT_EQ(cached.ks.size(), uncached.ks.size());
    for (std::size_t b = 0; b < cached.ks.size(); ++b) {
      EXPECT_EQ(cached.ks[b], uncached.ks[b])
          << to_string(repr) << " fold " << b;
    }
  }
}

TEST(EvalCache, CrossSystemScoresMatchUncachedPathForAllReprs) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  for (const ReprKind repr :
       {ReprKind::kHistogram, ReprKind::kMaxEnt, ReprKind::kPearson,
        ReprKind::kQuantile}) {
    CrossSystemConfig config;
    config.repr = repr;
    EvalOptions options;
    options.n_reconstruct = 200;
    const auto cached = evaluate_cross_system(amd, intel, config, options);
    EvalResult uncached;
    {
      ScopedNoCache pin;
      uncached = evaluate_cross_system(amd, intel, config, options);
    }
    ASSERT_EQ(cached.ks.size(), uncached.ks.size());
    for (std::size_t b = 0; b < cached.ks.size(); ++b) {
      EXPECT_EQ(cached.ks[b], uncached.ks[b])
          << to_string(repr) << " fold " << b;
    }
  }
}

// Same equivalence through the tree learners, which additionally consume the
// cache's presorted-column artifact (segment-mode fits).
TEST(EvalCache, TreeModelScoresMatchUncachedPath) {
  const auto& corpus = small_intel();
  const std::function<std::unique_ptr<ml::Regressor>()> forest_factory =
      []() -> std::unique_ptr<ml::Regressor> {
    ml::ForestParams fp;
    fp.n_trees = 8;
    fp.tree.max_depth = 6;
    fp.bootstrap = true;
    fp.feature_fraction = 1.0;
    fp.seed = 3;
    return std::make_unique<ml::RandomForest>(fp);
  };
  const std::function<std::unique_ptr<ml::Regressor>()> gbt_factory =
      []() -> std::unique_ptr<ml::Regressor> {
    ml::GbtParams gp;
    gp.n_rounds = 6;
    gp.subsample = 1.0;
    gp.colsample = 1.0;
    return std::make_unique<ml::GradientBoosting>(gp);
  };
  for (const auto& factory : {forest_factory, gbt_factory}) {
    FewRunsConfig config;
    config.model_factory = factory;
    EvalOptions options;
    options.n_reconstruct = 200;
    const auto cached = evaluate_few_runs(corpus, config, options);
    EvalResult uncached;
    {
      ScopedNoCache pin;
      uncached = evaluate_few_runs(corpus, config, options);
    }
    ASSERT_EQ(cached.ks.size(), uncached.ks.size());
    for (std::size_t b = 0; b < cached.ks.size(); ++b) {
      EXPECT_EQ(cached.ks[b], uncached.ks[b]) << "fold " << b;
    }
  }
}

// Bitwise equality of two double sequences (EXPECT_EQ per element would
// also pass -0.0 == 0.0; memcmp does not).
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The cache builds its rows on the pool; each must be exactly the row the
// serial construction gives: make_features for the source, encode for the
// target.
TEST(EvalCache, CrossSystemRowsEqualMakeFeatures) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  for (const ReprKind repr :
       {ReprKind::kHistogram, ReprKind::kMaxEnt, ReprKind::kPearson,
        ReprKind::kQuantile}) {
    CrossSystemConfig config;
    config.repr = repr;
    const auto cache = CrossSystemEvalCache::build(amd, intel, config);
    const CrossSystemPredictor predictor(config);
    EXPECT_EQ(cache.presorted, nullptr) << "kNN reads no column orders";
    ASSERT_EQ(cache.features.rows(), amd.benchmarks.size());
    ASSERT_EQ(cache.targets.size(), amd.benchmarks.size());
    for (std::size_t b = 0; b < amd.benchmarks.size(); ++b) {
      EXPECT_TRUE(same_bits(
          cache.features.row(b),
          predictor.make_features(*amd.system, amd.benchmarks[b])))
          << to_string(repr) << " row " << b;
      EXPECT_TRUE(same_bits(
          cache.targets[b],
          predictor.repr().encode(intel.benchmarks[b].relative_times())))
          << to_string(repr) << " target " << b;
    }
  }
}

// Few-runs analogue: the pool-built rows equal the serial replicate loop of
// FewRunsPredictor::train (same per-benchmark RNG stream, same order).
TEST(EvalCache, FewRunsRowsEqualSerialReplicateLoop) {
  const auto& corpus = small_intel();
  FewRunsConfig config;
  config.repr = ReprKind::kHistogram;
  const auto cache = FewRunsEvalCache::build(corpus, config);
  const auto repr = DistributionRepr::create(config.repr);
  ASSERT_EQ(cache.features.rows(),
            corpus.benchmarks.size() * config.train_replicates);
  // kNN never reads sorted column orders, so its cache carries none; a tree
  // model's cache does.
  EXPECT_EQ(cache.presorted, nullptr);
  FewRunsConfig forest = config;
  forest.model = ModelKind::kRandomForest;
  EXPECT_NE(FewRunsEvalCache::build(corpus, forest).presorted, nullptr);
  for (std::size_t b = 0; b < corpus.benchmarks.size(); ++b) {
    const auto& runs = corpus.benchmarks[b];
    EXPECT_TRUE(
        same_bits(cache.targets[b], repr->encode(runs.relative_times())))
        << "target " << b;
    Rng rng(seed_combine(config.seed, stable_hash(corpus.system->name()) ^
                                          (b * 0x9E37ULL + 17)));
    const std::size_t probes = std::min(config.n_probe_runs, runs.run_count());
    for (std::size_t rep = 0; rep < config.train_replicates; ++rep) {
      const auto idx = choose_run_indices(runs.run_count(), probes, rng);
      EXPECT_TRUE(same_bits(
          cache.features.row(b * config.train_replicates + rep),
          build_profile(*corpus.system, runs, idx, config.profile)))
          << "benchmark " << b << " replicate " << rep;
    }
  }
}

// The tree models' caches carry the column orders of exactly the matrix
// they cache, which is what each fold filters its own orders from.
TEST(EvalCache, TreeCachesCarryColumnOrdersOfTheirFeatures) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  for (const ModelKind model : {ModelKind::kRandomForest, ModelKind::kXgBoost}) {
    FewRunsConfig few;
    few.model = model;
    const auto few_cache = FewRunsEvalCache::build(intel, few);
    ASSERT_NE(few_cache.presorted, nullptr) << to_string(model);
    EXPECT_EQ(few_cache.presorted->order,
              ml::SortedColumns::build(few_cache.features).order)
        << to_string(model);
    CrossSystemConfig cross;
    cross.model = model;
    const auto cross_cache = CrossSystemEvalCache::build(amd, intel, cross);
    ASSERT_NE(cross_cache.presorted, nullptr) << to_string(model);
    EXPECT_EQ(cross_cache.presorted->order,
              ml::SortedColumns::build(cross_cache.features).order)
        << to_string(model);
  }
}

// A custom model factory may build a tree, so its cache keeps the column
// orders even when `model` names kNN.
TEST(EvalCache, ModelFactoryCacheCarriesColumnOrders) {
  const auto factory = []() -> std::unique_ptr<ml::Regressor> {
    return std::make_unique<ml::KnnRegressor>();
  };
  FewRunsConfig few;
  few.model_factory = factory;
  EXPECT_NE(FewRunsEvalCache::build(small_intel(), few).presorted, nullptr);
  CrossSystemConfig cross;
  cross.model_factory = factory;
  EXPECT_NE(
      CrossSystemEvalCache::build(small_amd(), small_intel(), cross).presorted,
      nullptr);
}

// With a cache the held-out benchmark is predicted from its cache row
// instead of being profiled again; the draws must not change by one bit.
TEST(EvalCache, HeldOutFromCacheMatchesFreshProfile) {
  const auto& amd = small_amd();
  const auto& intel = small_intel();
  for (const ReprKind repr :
       {ReprKind::kHistogram, ReprKind::kMaxEnt, ReprKind::kPearson,
        ReprKind::kQuantile}) {
    CrossSystemConfig config;
    config.repr = repr;
    EvalOptions options;
    options.n_reconstruct = 300;
    const auto cache = CrossSystemEvalCache::build(amd, intel, config);
    for (const std::size_t b : {std::size_t{0}, std::size_t{17},
                                amd.benchmarks.size() - 1}) {
      const auto cached = predict_held_out_cross_system(
          amd, intel, b, config, options, &cache);
      const auto fresh =
          predict_held_out_cross_system(amd, intel, b, config, options);
      EXPECT_TRUE(same_bits(cached, fresh))
          << to_string(repr) << " benchmark " << b;
    }
  }
}

TEST(EvalCache, TrainRejectsMismatchedCache) {
  // A cache built for a different config (replicate count) must be refused
  // rather than silently producing different training rows.
  const auto& corpus = small_intel();
  FewRunsConfig cache_config;
  const auto cache = FewRunsEvalCache::build(corpus, cache_config);
  FewRunsConfig other = cache_config;
  other.train_replicates = cache_config.train_replicates + 1;
  FewRunsPredictor predictor(other);
  const std::vector<std::size_t> training = {0, 1, 2, 3};
  EXPECT_THROW(predictor.train(corpus, training, &cache),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred::core
