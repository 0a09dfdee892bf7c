#include "core/profile.hpp"

#include <cstring>
#include <numeric>

#include "common/check.hpp"
#include "obs/obs.hpp"
#include "stats/moments.hpp"

namespace varpred::core {
namespace {

// Two doubles per instruction (SSE2 on x86-64, NEON on AArch64). Every
// operation is IEEE per lane, so a lane computes exactly what the scalar
// code computes for that metric.
using Lanes2 = double __attribute__((vector_size(16)));

template <typename T>
T load(const double* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void store(double* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

// Per-run scalars of MomentAccumulator::add: every metric has seen the same
// number of runs, so the count terms are shared by all of them.
struct RunStep {
  double runtime;
  double n1;  ///< count before this run
  double n;   ///< count after this run
  double c4;  ///< n * n - 3.0 * n + 3.0
  double c3;  ///< n - 2.0
};

// MomentAccumulator::add for the metrics [m, m + lanes): its expressions in
// its order, with T = double (one metric) or Lanes2 (two metrics).
template <typename T>
void add_run(const RunStep& s, const double* counters, double* mean,
             double* m2, double* m3, double* m4, std::size_t m) {
  const T x = load<T>(counters + m) / s.runtime;  // events per second
  const T delta = x - load<T>(mean + m);
  const T delta_n = delta / s.n;
  const T delta_n2 = delta_n * delta_n;
  const T term1 = delta * delta_n * s.n1;
  const T old_m2 = load<T>(m2 + m);
  const T old_m3 = load<T>(m3 + m);
  store(mean + m, load<T>(mean + m) + delta_n);
  store(m4 + m, load<T>(m4 + m) + (term1 * delta_n2 * s.c4 +
                                   6.0 * delta_n2 * old_m2 -
                                   4.0 * delta_n * old_m3));
  store(m3 + m, old_m3 + (term1 * delta_n * s.c3 - 3.0 * delta_n * old_m2));
  store(m2 + m, old_m2 + term1);
}

}  // namespace

std::vector<double> build_profile(const measure::SystemModel& system,
                                  const measure::BenchmarkRuns& runs,
                                  std::span<const std::size_t> run_indices,
                                  const ProfileOptions& options) {
  VARPRED_CHECK_ARG(!run_indices.empty(), "profile needs at least one run");
  VARPRED_OBS_COUNT("profile.builds", 1);
  VARPRED_OBS_COUNT("profile.runs_aggregated", run_indices.size());
  const std::size_t n_metrics = runs.counters.cols();
  VARPRED_CHECK_ARG(n_metrics == system.metric_count(),
                    "runs/system metric count mismatch");
  const std::size_t per_metric = options.features_per_metric();
  std::vector<double> features(n_metrics * per_metric, 0.0);

  // Lane-wise Welford over every metric at once, two metrics per step. The
  // per-metric state lives in one buffer of four planes (mean, m2, m3, m4).
  // Both divisions stay divisions: a reciprocal multiply would change the
  // features' bits.
  std::vector<double> state(4 * n_metrics, 0.0);
  double* const mean = state.data();
  double* const m2 = mean + n_metrics;
  double* const m3 = m2 + n_metrics;
  double* const m4 = m3 + n_metrics;
  std::size_t count = 0;
  for (const std::size_t r : run_indices) {
    VARPRED_CHECK_ARG(r < runs.run_count(), "run index out of range");
    RunStep step;
    step.runtime = runs.runtimes[r];
    step.n1 = static_cast<double>(count);
    ++count;
    step.n = static_cast<double>(count);
    step.c4 = step.n * step.n - 3.0 * step.n + 3.0;
    step.c3 = step.n - 2.0;
    const double* const counters = runs.counters.row(r).data();
    std::size_t m = 0;
    for (; m + 2 <= n_metrics; m += 2) {
      add_run<Lanes2>(step, counters, mean, m2, m3, m4, m);
    }
    if (m < n_metrics) add_run<double>(step, counters, mean, m2, m3, m4, m);
  }

  // Note on duration_time: normalized per second it is identically 1, so it
  // contributes a dead (constant) feature. This matches the paper's "all
  // metrics normalized per unit time" rule -- the pipeline deliberately has
  // no direct runtime-width feature, and distribution width must be
  // inferred from the counters' behaviour.
  for (std::size_t m = 0; m < n_metrics; ++m) {
    const auto moments = stats::MomentAccumulator::from_raw(
                             count, mean[m], m2[m], m3[m], m4[m])
                             .moments();
    features[m * per_metric] = moments.mean;
    if (options.include_higher_moments) {
      features[m * per_metric + 1] = moments.stddev;
      features[m * per_metric + 2] = moments.skewness;
      features[m * per_metric + 3] = moments.kurtosis;
    }
  }
  return features;
}

std::vector<double> build_full_profile(const measure::SystemModel& system,
                                       const measure::BenchmarkRuns& runs,
                                       const ProfileOptions& options) {
  std::vector<std::size_t> all(runs.run_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return build_profile(system, runs, all, options);
}

std::vector<std::string> profile_feature_names(
    const measure::SystemModel& system, const ProfileOptions& options) {
  static const char* kStatNames[] = {"mean", "sd", "skew", "kurt"};
  std::vector<std::string> names;
  names.reserve(system.metric_count() * options.features_per_metric());
  for (const auto& metric : system.metrics()) {
    for (std::size_t s = 0; s < options.features_per_metric(); ++s) {
      names.push_back(metric.name + "/s." + kStatNames[s]);
    }
  }
  return names;
}

std::vector<std::size_t> choose_run_indices(std::size_t total,
                                            std::size_t count, Rng& rng) {
  VARPRED_CHECK_ARG(count >= 1 && count <= total,
                    "need 1 <= count <= total runs");
  // Floyd's algorithm would also work; with the small counts used here a
  // partial Fisher-Yates over the index range is simplest.
  std::vector<std::size_t> pool(total);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_index(total - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace varpred::core
