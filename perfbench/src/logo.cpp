#include "logo.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/evaluator.hpp"
#include "core/profile.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/sorted_columns.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "pearson/pearson.hpp"
#include "stats/ks.hpp"
#include "stats/moments.hpp"
#include "stats/overlap.hpp"
#include "stats/wasserstein.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using varpred::Rng;
using varpred::core::ModelKind;
using varpred::core::ReprKind;
using varpred::measure::Corpus;

// Static span names per representation / model kind, so spans carry the
// kind without allocating.
const char* encode_span(ReprKind repr) {
  switch (repr) {
    case ReprKind::kHistogram: return "core.encode.Histogram";
    case ReprKind::kMaxEnt: return "core.encode.PyMaxEnt";
    case ReprKind::kPearson: return "core.encode.PearsonRnd";
    case ReprKind::kQuantile: return "core.encode.Quantile";
  }
  throw std::invalid_argument("unknown representation");
}

const char* reconstruct_span(ReprKind repr) {
  switch (repr) {
    case ReprKind::kHistogram: return "core.reconstruct.Histogram";
    case ReprKind::kMaxEnt: return "core.reconstruct.PyMaxEnt";
    case ReprKind::kPearson: return "core.reconstruct.PearsonRnd";
    case ReprKind::kQuantile: return "core.reconstruct.Quantile";
  }
  throw std::invalid_argument("unknown representation");
}

const char* fit_span(ModelKind model) {
  switch (model) {
    case ModelKind::kKnn: return "ml.fit.kNN";
    case ModelKind::kRandomForest: return "ml.fit.RF";
    case ModelKind::kXgBoost: return "ml.fit.XGBoost";
    case ModelKind::kRidge: return "ml.fit.Ridge";
  }
  throw std::invalid_argument("unknown model kind");
}

const char* predict_span(ModelKind model) {
  switch (model) {
    case ModelKind::kKnn: return "ml.predict.kNN";
    case ModelKind::kRandomForest: return "ml.predict.RF";
    case ModelKind::kXgBoost: return "ml.predict.XGBoost";
    case ModelKind::kRidge: return "ml.predict.Ridge";
  }
  throw std::invalid_argument("unknown model kind");
}

// Evaluation settings both pass kinds share: the library defaults, which is
// what `varpred evaluate` runs.
const varpred::core::EvalOptions kEvalDefaults{};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<std::size_t> all_but(std::size_t n, std::size_t held_out) {
  std::vector<std::size_t> out;
  out.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != held_out) out.push_back(i);
  }
  return out;
}

varpred::core::EvalOptions options_for(const Cell& cell) {
  varpred::core::EvalOptions options = kEvalDefaults;
  if (cell.quality) {
    options.quality_repr = varpred::core::to_string(cell.repr);
    options.quality_model = varpred::core::to_string(cell.model);
  }
  return options;
}

// Trees (RF) or boosting rounds (XGBoost) of a fitted model; 1 otherwise.
double trees_of(const varpred::ml::Regressor& model) {
  if (const auto* rf = dynamic_cast<const varpred::ml::RandomForest*>(&model)) {
    return static_cast<double>(rf->params().n_trees);
  }
  if (const auto* gbt =
          dynamic_cast<const varpred::ml::GradientBoosting*>(&model)) {
    return static_cast<double>(gbt->params().n_rounds);
  }
  return 1.0;
}

// Fold-shared training artifacts of one cell: benchmark b's rows of `x_all`
// are [b * replicates, (b + 1) * replicates), its target `targets[b]`.
struct FoldInputs {
  const varpred::ml::Matrix* x_all = nullptr;
  const std::vector<std::vector<double>>* targets = nullptr;
  const varpred::ml::SortedColumns* presorted = nullptr;
  std::size_t replicates = 1;
  ModelKind model = ModelKind::kKnn;
  std::uint64_t model_seed = 0;
};

std::unique_ptr<varpred::ml::Regressor> fit_fold(const FoldInputs& in,
                                                 std::size_t held_out,
                                                 std::size_t n,
                                                 PassCounts& counts,
                                                 std::mutex& counts_mu) {
  std::vector<std::size_t> rows;
  rows.reserve((n - 1) * in.replicates);
  varpred::ml::Matrix y;
  for (const std::size_t b : all_but(n, held_out)) {
    for (std::size_t rep = 0; rep < in.replicates; ++rep) {
      rows.push_back(b * in.replicates + rep);
      y.push_row((*in.targets)[b]);
    }
  }
  const varpred::ml::Matrix x = in.x_all->gather_rows(rows);
  auto model = varpred::core::make_model(in.model, in.model_seed);
  if (in.presorted != nullptr) {
    Span span("ml.presort");
    model->set_presorted(std::make_shared<const varpred::ml::SortedColumns>(
        in.presorted->filtered(rows, /*remap=*/true)));
  }
  {
    Span span(fit_span(in.model));
    model->fit(x, y);
  }
  const double cells = static_cast<double>(x.rows()) *
                       static_cast<double>(x.cols()) * trees_of(*model);
  std::lock_guard<std::mutex> lock(counts_mu);
  ++counts.fit_calls;
  counts.fit_cells += cells;
  return model;
}

// Scores one fold; returns its KS.
double score_fold(const Cell& cell, std::span<const double> measured,
                  std::span<const double> predicted) {
  double ks = 0.0;
  {
    Span span("stats.ks");
    ks = varpred::stats::ks_statistic(measured, predicted);
  }
  if (cell.quality) {
    {
      Span span("stats.w1");
      (void)varpred::stats::wasserstein1_normalized(measured, predicted);
    }
    Span span("stats.overlap");
    (void)varpred::stats::overlap_coefficient(measured, predicted);
  }
  return ks;
}

// Few-runs cell, the same operations in the same order as
// core::evaluate_few_runs with its fold-shared cache.
std::vector<double> few_runs_cell(const Cell& cell,
                                  std::vector<std::vector<double>>& encoded,
                                  PassCounts& counts, std::mutex& counts_mu) {
  const Corpus& corpus = *cell.source;
  const varpred::measure::SystemModel& system = *corpus.system;
  varpred::core::FewRunsConfig config;
  config.repr = cell.repr;
  config.model = cell.model;
  const auto repr = varpred::core::DistributionRepr::create(cell.repr);
  const std::size_t n = corpus.benchmarks.size();

  varpred::ml::Matrix features;
  std::vector<std::vector<double>> targets;
  targets.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    const auto& runs = corpus.benchmarks[b];
    const auto rel = runs.relative_times();
    {
      Span span(encode_span(cell.repr));
      targets.push_back(repr->encode(rel));
    }
    Rng rng(varpred::seed_combine(
        config.seed,
        varpred::stable_hash(system.name()) ^ (b * 0x9E37ULL + 17)));
    const std::size_t probes = std::min(config.n_probe_runs, runs.run_count());
    for (std::size_t rep = 0; rep < config.train_replicates; ++rep) {
      const auto idx =
          varpred::core::choose_run_indices(runs.run_count(), probes, rng);
      Span span("core.profile");
      features.push_row(
          varpred::core::build_profile(system, runs, idx, config.profile));
    }
  }
  std::unique_ptr<varpred::ml::SortedColumns> presorted;
  if (features.rows() >= 2) {
    Span span("ml.presort");
    presorted = std::make_unique<varpred::ml::SortedColumns>(
        varpred::ml::SortedColumns::build(features));
  }
  FoldInputs inputs{&features, &targets, presorted.get(),
                    config.train_replicates, cell.model, config.seed};

  std::vector<double> ks(n);
  encoded.assign(n, {});
  const std::uint32_t parent = Span::current();
  Span wait("common.pool.wait");
  varpred::parallel_for(n, [&](std::size_t b) {
    Span fold("bench.fold", parent);
    const auto model = fit_fold(inputs, b, n, counts, counts_mu);
    const auto& runs = corpus.benchmarks[b];
    Rng probe_rng(varpred::seed_combine(kEvalDefaults.seed, 0xBEEF0000ULL + b));
    const auto probes = varpred::core::choose_run_indices(
        runs.run_count(), std::min(config.n_probe_runs, runs.run_count()),
        probe_rng);
    Rng rng(varpred::seed_combine(kEvalDefaults.seed, 0xD15717ULL + b));
    std::vector<double> profile;
    {
      Span span("core.profile");
      profile =
          varpred::core::build_profile(system, runs, probes, config.profile);
    }
    {
      Span span(predict_span(cell.model));
      encoded[b] = model->predict(profile);
    }
    std::vector<double> predicted;
    {
      Span span(reconstruct_span(cell.repr));
      predicted =
          repr->reconstruct(encoded[b], kEvalDefaults.n_reconstruct, rng);
    }
    ks[b] = score_fold(cell, runs.relative_times(), predicted);
  });
  return ks;
}

// Cross-system cell, the same operations in the same order as
// core::evaluate_cross_system with its fold-shared cache.
std::vector<double> cross_system_cell(const Cell& cell,
                                      std::vector<std::vector<double>>& encoded,
                                      PassCounts& counts,
                                      std::mutex& counts_mu) {
  const Corpus& source = *cell.source;
  const Corpus& target = *cell.target;
  varpred::core::CrossSystemConfig config;
  config.repr = cell.repr;
  config.model = cell.model;
  const auto repr = varpred::core::DistributionRepr::create(cell.repr);
  const std::size_t n = source.benchmarks.size();

  // Full source profile with the encoded source distribution appended
  // (CrossSystemPredictor::make_features).
  const auto make_features = [&](const varpred::measure::BenchmarkRuns& runs) {
    std::vector<double> features;
    {
      Span span("core.profile");
      features = varpred::core::build_full_profile(*source.system, runs,
                                                   config.profile);
    }
    const auto rel = runs.relative_times();
    Span span(encode_span(cell.repr));
    const auto enc = repr->encode(rel);
    features.insert(features.end(), enc.begin(), enc.end());
    return features;
  };

  varpred::ml::Matrix features;
  std::vector<std::vector<double>> targets;
  targets.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    features.push_row(make_features(source.benchmarks[b]));
    const auto rel = target.benchmarks[b].relative_times();
    Span span(encode_span(cell.repr));
    targets.push_back(repr->encode(rel));
  }
  std::unique_ptr<varpred::ml::SortedColumns> presorted;
  if (features.rows() >= 2) {
    Span span("ml.presort");
    presorted = std::make_unique<varpred::ml::SortedColumns>(
        varpred::ml::SortedColumns::build(features));
  }
  FoldInputs inputs{&features, &targets, presorted.get(), 1, cell.model,
                    config.seed};

  std::vector<double> ks(n);
  encoded.assign(n, {});
  const std::uint32_t parent = Span::current();
  Span wait("common.pool.wait");
  varpred::parallel_for(n, [&](std::size_t b) {
    Span fold("bench.fold", parent);
    const auto model = fit_fold(inputs, b, n, counts, counts_mu);
    Rng rng(varpred::seed_combine(kEvalDefaults.seed, 0xC105500ULL + b));
    const auto row = make_features(source.benchmarks[b]);
    {
      Span span(predict_span(cell.model));
      encoded[b] = model->predict(row);
    }
    std::vector<double> predicted;
    {
      Span span(reconstruct_span(cell.repr));
      predicted =
          repr->reconstruct(encoded[b], kEvalDefaults.n_reconstruct, rng);
    }
    ks[b] = score_fold(cell, target.benchmarks[b].relative_times(), predicted);
  });
  return ks;
}

// Pearson family per PearsonRnd prediction, classified the way the
// representation's reconstruct sees the moments (after sanitizing).
void count_pearson_types(const std::vector<std::vector<double>>& encoded,
                         PassCounts& counts) {
  for (const auto& e : encoded) {
    const auto m = varpred::pearson::sanitize_moments(
        varpred::stats::Moments::from_vector(e));
    const auto type = varpred::pearson::classify(m.skewness, m.kurtosis);
    ++counts.pearson_types.at(static_cast<std::size_t>(type));
  }
}

// MaxEnt reconstructs that fell back to the uniform density, read from the
// library's own counter by reconstructing each prediction once more with
// the counter registry switched on. Runs after the timed pass.
void count_maxent_fallbacks(const std::vector<std::vector<double>>& encoded,
                            PassCounts& counts) {
  const auto repr = varpred::core::DistributionRepr::create(ReprKind::kMaxEnt);
  auto& counter = varpred::obs::Registry::global().counter(
      "repr.maxent.uniform_fallbacks");
  const auto mode = varpred::obs::mode();
  varpred::obs::set_mode(varpred::obs::Mode::kSummary);
  const std::uint64_t before = counter.value();
  Rng rng(1);
  for (const auto& e : encoded) (void)repr->reconstruct(e, 1, rng);
  const std::uint64_t after = counter.value();
  varpred::obs::set_mode(mode);
  counts.maxent_uniform_fallbacks += after - before;
}

}  // namespace

std::string Cell::label() const {
  std::string out = target == nullptr
                        ? "UC1 " + source->system->name()
                        : "UC2 " + source->system->name() + "->" +
                              target->system->name();
  return out + " " + varpred::core::to_string(repr) + "+" +
         varpred::core::to_string(model);
}

double PassResult::ks_mean() const {
  if (ks.empty()) return 0.0;
  double total = 0.0;
  for (const auto& cell : ks) {
    total += std::accumulate(cell.begin(), cell.end(), 0.0) /
             static_cast<double>(cell.size());
  }
  return total / static_cast<double>(ks.size());
}

PassResult run_pass(const std::vector<Cell>& cells) {
  PassResult result;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Cell& cell : cells) {
    const auto options = options_for(cell);
    varpred::core::EvalResult r;
    if (cell.target == nullptr) {
      varpred::core::FewRunsConfig config;
      config.repr = cell.repr;
      config.model = cell.model;
      r = varpred::core::evaluate_few_runs(*cell.source, config, options);
    } else {
      varpred::core::CrossSystemConfig config;
      config.repr = cell.repr;
      config.model = cell.model;
      r = varpred::core::evaluate_cross_system(*cell.source, *cell.target,
                                               config, options);
    }
    result.ks.push_back(std::move(r.ks));
  }
  result.seconds = seconds_since(t0);
  return result;
}

PassResult run_pass_traced(const std::vector<Cell>& cells,
                           PassCounts& counts) {
  PassResult result;
  std::mutex counts_mu;
  std::vector<std::vector<std::vector<double>>> encoded(cells.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    Span span("bench.cell");
    result.ks.push_back(
        cell.target == nullptr
            ? few_runs_cell(cell, encoded[c], counts, counts_mu)
            : cross_system_cell(cell, encoded[c], counts, counts_mu));
  }
  result.seconds = seconds_since(t0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].repr == ReprKind::kPearson) {
      count_pearson_types(encoded[c], counts);
    } else if (cells[c].repr == ReprKind::kMaxEnt) {
      count_maxent_fallbacks(encoded[c], counts);
    }
  }
  return result;
}

std::size_t spot_check(const std::vector<Cell>& cells, const PassResult& pass,
                       std::size_t per_cell, std::uint64_t seed) {
  struct Fold {
    std::size_t cell;
    std::size_t bench;
  };
  std::vector<Fold> folds;
  Rng rng(seed);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::size_t n = cells[c].source->benchmarks.size();
    for (std::size_t i = 0; i < std::min(per_cell, n); ++i) {
      folds.push_back({c, rng.uniform_index(n)});
    }
  }
  std::vector<char> differs(folds.size(), 0);
  varpred::parallel_for(folds.size(), [&](std::size_t i) {
    const Cell& cell = cells[folds[i].cell];
    const std::size_t b = folds[i].bench;
    const auto options = options_for(cell);
    std::vector<double> predicted;
    std::vector<double> measured;
    if (cell.target == nullptr) {
      varpred::core::FewRunsConfig config;
      config.repr = cell.repr;
      config.model = cell.model;
      predicted = varpred::core::predict_held_out_few_runs(*cell.source, b,
                                                           config, options);
      measured = cell.source->benchmarks[b].relative_times();
    } else {
      varpred::core::CrossSystemConfig config;
      config.repr = cell.repr;
      config.model = cell.model;
      predicted = varpred::core::predict_held_out_cross_system(
          *cell.source, *cell.target, b, config, options);
      measured = cell.target->benchmarks[b].relative_times();
    }
    differs[i] = varpred::stats::ks_statistic(measured, predicted) !=
                 pass.ks[folds[i].cell][b];
  });
  return static_cast<std::size_t>(
      std::count(differs.begin(), differs.end(), 1));
}

}  // namespace perfbench
