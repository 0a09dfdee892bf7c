#include "stats/moments.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace varpred::stats {
namespace {

// Below this size the per-chunk dispatch costs more than it saves; profiles
// and per-benchmark run vectors (~1000 values) stay on the serial path so
// existing golden outputs are untouched.
constexpr std::size_t kParallelMomentsThreshold = 1u << 15;

// Four independent Welford states ("lanes"), structure-of-arrays.
struct Lanes {
  double n[4] = {0.0, 0.0, 0.0, 0.0};
  double mean[4] = {0.0, 0.0, 0.0, 0.0};
  double m2[4] = {0.0, 0.0, 0.0, 0.0};
  double m3[4] = {0.0, 0.0, 0.0, 0.0};
  double m4[4] = {0.0, 0.0, 0.0, 0.0};
};

// One-lane update: the same expressions as MomentAccumulator::add.
inline void lane_add(Lanes& lanes, std::size_t j, double x) {
  const double n1 = lanes.n[j];
  const double n = n1 + 1.0;
  const double delta = x - lanes.mean[j];
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  lanes.mean[j] += delta_n;
  lanes.m4[j] += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) +
                 6.0 * delta_n2 * lanes.m2[j] - 4.0 * delta_n * lanes.m3[j];
  lanes.m3[j] += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * lanes.m2[j];
  lanes.m2[j] += term1;
  lanes.n[j] = n;
}

}  // namespace

MomentAccumulator accumulate_moments(std::span<const double> sample) {
  Lanes lanes;
  const std::size_t n_blocks = sample.size() / 4;
  for (std::size_t k = 0; k < n_blocks; ++k) {
    for (std::size_t j = 0; j < 4; ++j) lane_add(lanes, j, sample[k * 4 + j]);
  }
  // Tail elements (fewer than one block) go to lanes 0..tail-1; then the
  // lanes merge in fixed order through the exact pairwise formulas.
  for (std::size_t j = 0; j < sample.size() % 4; ++j) {
    lane_add(lanes, j, sample[n_blocks * 4 + j]);
  }
  MomentAccumulator acc;
  for (std::size_t j = 0; j < 4; ++j) {
    acc.merge(MomentAccumulator::from_raw(static_cast<std::size_t>(lanes.n[j]),
                                          lanes.mean[j], lanes.m2[j],
                                          lanes.m3[j], lanes.m4[j]));
  }
  return acc;
}

Moments Moments::from_vector(std::span<const double> v) {
  VARPRED_CHECK_ARG(v.size() >= 4, "moment vector needs 4 entries");
  Moments m;
  m.mean = v[0];
  m.stddev = v[1];
  m.skewness = v[2];
  m.kurtosis = v[3];
  return m;
}

void MomentAccumulator::add(double x) {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

void MomentAccumulator::merge(const MomentAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ +
                    delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + other.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ = (na * mean_ + nb * other.mean_) / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  n_ = n_ + other.n_;
}

MomentAccumulator MomentAccumulator::from_raw(std::size_t n, double mean,
                                              double m2, double m3,
                                              double m4) {
  MomentAccumulator acc;
  acc.n_ = n;
  acc.mean_ = mean;
  acc.m2_ = m2;
  acc.m3_ = m3;
  acc.m4_ = m4;
  return acc;
}

Moments MomentAccumulator::moments() const {
  Moments m;
  m.count = n_;
  if (n_ == 0) return m;
  m.mean = mean_;
  if (n_ < 2) return m;
  const double n = static_cast<double>(n_);
  const double var = m2_ / n;  // biased (population) second moment
  if (var <= 0.0 || !std::isfinite(var)) return m;
  m.stddev = std::sqrt(var);
  m.skewness = (m3_ / n) / std::pow(var, 1.5);
  m.kurtosis = (m4_ / n) / (var * var);
  if (!std::isfinite(m.skewness)) m.skewness = 0.0;
  if (!std::isfinite(m.kurtosis)) m.kurtosis = 3.0;
  return m;
}

Moments compute_moments(std::span<const double> sample) {
  if (sample.size() >= kParallelMomentsThreshold) {
    return compute_moments_parallel(sample);
  }
  MomentAccumulator acc;
  for (const double x : sample) acc.add(x);
  return acc.moments();
}

Moments compute_moments_parallel(std::span<const double> sample) {
  const MomentAccumulator acc = ThreadPool::global().parallel_reduce(
      sample.size(), MomentAccumulator{},
      [&](std::size_t begin, std::size_t end) {
        // 4-lane Welford per chunk. Chunk boundaries depend only on n, so
        // the result stays worker-independent.
        return accumulate_moments(sample.subspan(begin, end - begin));
      },
      [](MomentAccumulator a, const MomentAccumulator& b) {
        a.merge(b);
        return a;
      });
  return acc.moments();
}

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : sample) sum += x;
  return sum / static_cast<double>(sample.size());
}

double sample_variance(std::span<const double> sample) {
  if (sample.size() < 2) return 0.0;
  const double mu = mean(sample);
  double acc = 0.0;
  for (const double x : sample) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(sample.size() - 1);
}

double population_variance(std::span<const double> sample) {
  if (sample.size() < 2) return 0.0;
  const double mu = mean(sample);
  double acc = 0.0;
  for (const double x : sample) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(sample.size());
}

std::vector<double> to_relative(std::span<const double> sample) {
  VARPRED_CHECK_ARG(!sample.empty(), "to_relative on empty sample");
  const double mu = mean(sample);
  VARPRED_CHECK_ARG(mu > 0.0, "to_relative requires positive mean");
  std::vector<double> out(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) out[i] = sample[i] / mu;
  return out;
}

}  // namespace varpred::stats
