#include "core/evalcache.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace varpred::core {
namespace {

// Only the tree learners read presorted column orders (kNN and ridge ignore
// them), so the caches build that artifact for them alone. A custom model
// factory may build a tree learner, so it gets the orders too.
template <typename Config>
bool model_reads_presorted(const Config& config) {
  return config.model_factory || config.model == ModelKind::kRandomForest ||
         config.model == ModelKind::kXgBoost;
}

}  // namespace

std::vector<std::size_t> FewRunsEvalCache::rows_for(
    std::span<const std::size_t> benchmarks) const {
  std::vector<std::size_t> rows;
  rows.reserve(benchmarks.size() * replicates);
  for (const std::size_t b : benchmarks) {
    VARPRED_CHECK_ARG(b < targets.size(), "benchmark index out of range");
    for (std::size_t rep = 0; rep < replicates; ++rep) {
      rows.push_back(b * replicates + rep);
    }
  }
  VARPRED_CHECK_ARG(std::is_sorted(rows.begin(), rows.end()),
                    "training benchmarks must be strictly ascending");
  return rows;
}

FewRunsEvalCache FewRunsEvalCache::build(const measure::Corpus& corpus,
                                         const FewRunsConfig& config) {
  obs::Span span("eval.cache.build");
  VARPRED_OBS_COUNT("eval.cache.builds", 1);
  const auto repr = DistributionRepr::create(config.repr);
  FewRunsEvalCache cache;
  cache.replicates = config.train_replicates;
  const std::size_t n = corpus.benchmarks.size();
  // Benchmarks build on the pool into pre-sized slots; rows are assembled in
  // benchmark order, so the cache bytes do not depend on the worker count.
  std::vector<std::vector<double>> rows(n * cache.replicates);
  cache.targets.resize(n);
  parallel_for(n, [&](std::size_t b) {
    const auto& runs = corpus.benchmarks[b];
    cache.targets[b] = repr->encode(runs.relative_times());
    // Same per-benchmark stream as FewRunsPredictor::train's uncached loop:
    // seeded independently of the training subset, so every fold sees these
    // exact rows.
    Rng rng(seed_combine(config.seed, stable_hash(corpus.system->name()) ^
                                          (b * 0x9E37ULL + 17)));
    const std::size_t probes =
        std::min(config.n_probe_runs, runs.run_count());
    for (std::size_t rep = 0; rep < cache.replicates; ++rep) {
      const auto idx = choose_run_indices(runs.run_count(), probes, rng);
      rows[b * cache.replicates + rep] =
          build_profile(*corpus.system, runs, idx, config.profile);
    }
  });
  cache.features = ml::Matrix::from_rows(rows);
  if (cache.features.rows() >= 2 && model_reads_presorted(config)) {
    cache.presorted = std::make_shared<const ml::SortedColumns>(
        ml::SortedColumns::build(cache.features));
  }
  return cache;
}

CrossSystemEvalCache CrossSystemEvalCache::build(
    const measure::Corpus& source, const measure::Corpus& target,
    const CrossSystemConfig& config) {
  VARPRED_CHECK_ARG(source.benchmarks.size() == target.benchmarks.size(),
                    "corpora must cover the same benchmark set");
  obs::Span span("eval.cache.build");
  VARPRED_OBS_COUNT("eval.cache.builds", 1);
  // Each row is CrossSystemPredictor::make_features of the benchmark, built
  // on the pool into its own slot and assembled in benchmark order.
  const CrossSystemPredictor rows_of(config);
  const std::size_t n = source.benchmarks.size();
  std::vector<std::vector<double>> rows(n);
  CrossSystemEvalCache cache;
  cache.targets.resize(n);
  parallel_for(n, [&](std::size_t b) {
    rows[b] = rows_of.make_features(*source.system, source.benchmarks[b]);
    cache.targets[b] =
        rows_of.repr().encode(target.benchmarks[b].relative_times());
  });
  cache.features = ml::Matrix::from_rows(rows);
  if (cache.features.rows() >= 2 && model_reads_presorted(config)) {
    cache.presorted = std::make_shared<const ml::SortedColumns>(
        ml::SortedColumns::build(cache.features));
  }
  return cache;
}

}  // namespace varpred::core
