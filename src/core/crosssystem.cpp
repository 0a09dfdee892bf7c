#include "core/crosssystem.hpp"

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/evalcache.hpp"
#include "ml/binned_columns.hpp"
#include "obs/obs.hpp"

namespace varpred::core {

CrossSystemPredictor::CrossSystemPredictor(CrossSystemConfig config)
    : config_(config), repr_(DistributionRepr::create(config.repr)) {}

std::vector<double> CrossSystemPredictor::make_features(
    const measure::SystemModel& system,
    const measure::BenchmarkRuns& source_runs) const {
  auto features = build_full_profile(system, source_runs, config_.profile);
  const auto encoded = repr_->encode(source_runs.relative_times());
  features.insert(features.end(), encoded.begin(), encoded.end());
  return features;
}

void CrossSystemPredictor::train(
    const measure::Corpus& source, const measure::Corpus& target,
    std::span<const std::size_t> train_benchmarks,
    const CrossSystemEvalCache* cache) {
  VARPRED_CHECK_ARG(!train_benchmarks.empty(), "no training benchmarks");
  VARPRED_CHECK_ARG(source.benchmarks.size() == target.benchmarks.size(),
                    "corpora must cover the same benchmark set");
  obs::Span span("xsys.train");
  VARPRED_OBS_COUNT("xsys.trainings", 1);
  source_system_ = source.system;
  ml::Matrix x;
  ml::Matrix y;
  std::shared_ptr<const ml::SortedColumns> presorted;
  std::shared_ptr<const ml::BinnedColumns> binned;
  if (cache != nullptr) {
    // Fold-shared artifacts (feature rows and targets are pure functions of
    // the corpora, so gathering is byte-identical to the loop below).
    VARPRED_CHECK_ARG(cache->targets.size() == source.benchmarks.size(),
                      "evaluation cache does not match corpus");
    x = cache->features.gather_rows(train_benchmarks);
    for (const std::size_t b : train_benchmarks) y.push_row(cache->targets[b]);
    if (cache->presorted != nullptr) {
      presorted = std::make_shared<const ml::SortedColumns>(
          cache->presorted->filtered(train_benchmarks, /*remap=*/true));
      if (ml::tree_binned_profitable(x.rows())) {
        // Fold-level bin codes from the filtered orders (see
        // FewRunsPredictor::train).
        binned = std::make_shared<const ml::BinnedColumns>(
            ml::BinnedColumns::build(x, *presorted));
      }
    }
  } else {
    for (const std::size_t b : train_benchmarks) {
      VARPRED_CHECK_ARG(b < source.benchmarks.size(),
                        "benchmark index out of range");
    }
    // Rows build on the pool into one slot per training benchmark and are
    // assembled in order, so x and y do not depend on the worker count.
    const std::size_t n = train_benchmarks.size();
    std::vector<std::vector<double>> rows(n);
    std::vector<std::vector<double>> targets(n);
    parallel_for(n, [&](std::size_t i) {
      const std::size_t b = train_benchmarks[i];
      rows[i] = make_features(*source.system, source.benchmarks[b]);
      targets[i] = repr_->encode(target.benchmarks[b].relative_times());
    });
    x = ml::Matrix::from_rows(rows);
    y = ml::Matrix::from_rows(targets);
  }
  model_ = config_.model_factory ? config_.model_factory()
                                 : make_model(config_.model, config_.seed);
  if (presorted != nullptr) model_->set_presorted(std::move(presorted));
  if (binned != nullptr) model_->set_binned(std::move(binned));
  model_->fit(x, y);
}

void CrossSystemPredictor::train_all(const measure::Corpus& source,
                                     const measure::Corpus& target) {
  std::vector<std::size_t> all(source.benchmarks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  train(source, target, all);
}

std::vector<double> CrossSystemPredictor::predict_encoded(
    std::span<const double> features) const {
  VARPRED_CHECK(trained(), "predict before train");
  return model_->predict(features);
}

std::vector<double> CrossSystemPredictor::predict_distribution(
    const measure::BenchmarkRuns& source_runs, std::size_t n_samples,
    Rng& rng) const {
  VARPRED_CHECK(source_system_ != nullptr, "predict before train");
  return predict_distribution(make_features(*source_system_, source_runs),
                              n_samples, rng);
}

std::vector<double> CrossSystemPredictor::predict_distribution(
    std::span<const double> features, std::size_t n_samples,
    Rng& rng) const {
  obs::Span span("xsys.predict");
  VARPRED_OBS_COUNT("xsys.predictions", 1);
  const auto encoded = predict_encoded(features);
  return repr_->reconstruct(encoded, n_samples, rng);
}

}  // namespace varpred::core
