// The Pearson distribution system (MATLAB `pearsrnd` equivalent).
//
// Given the first four moments (mean, stddev, skewness, non-excess kurtosis)
// this module classifies the matching Pearson curve family (types 0-VII) and
// draws random variates from it. The paper's best-performing distribution
// representation ("PearsonRnd") predicts the four moments of the relative
// runtime and reconstructs the distribution by sampling the Pearson system.
//
// Classification follows the classical discriminant on
//   beta1 = skewness^2, beta2 = kurtosis:
//     c0 = 4*beta2 - 3*beta1
//     c1 = skew * (beta2 + 3)
//     c2 = 2*beta2 - 3*beta1 - 6
//     kappa = c1^2 / (4 c0 c2)
// Every sampler is constructed in a raw shape-true parameterization and then
// standardized analytically (exact component mean/variance), so the returned
// variates match the requested mean/stddev to machine precision and the
// requested skewness/kurtosis up to sampling error.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats/moments.hpp"

namespace varpred::pearson {

/// Pearson family indices (0 = normal, I..VII as in the literature).
enum class PearsonType {
  kNormal = 0,
  kTypeI = 1,    ///< (shifted, scaled) beta
  kTypeII = 2,   ///< symmetric beta
  kTypeIII = 3,  ///< (shifted, scaled) gamma
  kTypeIV = 4,   ///< no closed form; sampled via the arctan substitution
  kTypeV = 5,    ///< (shifted) inverse gamma
  kTypeVI = 6,   ///< (shifted, scaled) beta prime / F
  kTypeVII = 7,  ///< scaled Student-t
};

std::string to_string(PearsonType type);

/// Moment validity: a distribution with skewness g and kurtosis k exists only
/// if k > g^2 + 1 (the boundary is the two-point distribution).
bool moments_feasible(double skewness, double kurtosis);

/// Projects (possibly predicted, possibly infeasible) moments into the
/// feasible region: enforces stddev >= 0 and kurtosis >= skew^2 + 1 + margin.
/// Used by the prediction pipeline before reconstruction, since regressors
/// can emit infeasible moment combinations.
stats::Moments sanitize_moments(const stats::Moments& m,
                                double margin = 0.05);

/// Classifies the Pearson type for the given skewness/kurtosis.
/// Throws std::invalid_argument for infeasible moments.
PearsonType classify(double skewness, double kurtosis);

/// A prepared sampler for a specific moment target. Construction does the
/// classification and parameter fitting once; sample() is then cheap.
class PearsonSampler {
 public:
  /// Throws std::invalid_argument for infeasible moments or stddev < 0.
  explicit PearsonSampler(const stats::Moments& target);

  PearsonType type() const { return type_; }
  const stats::Moments& target() const { return target_; }

  /// Draws one variate.
  double sample(Rng& rng) const;

  /// Draws n variates.
  std::vector<double> sample_many(Rng& rng, std::size_t n) const;

 private:
  // Standardized (zero-mean unit-variance) draw for the fitted family.
  double sample_standardized(Rng& rng) const;

  stats::Moments target_;
  PearsonType type_ = PearsonType::kNormal;

  // Family parameters (meaning depends on type_; see pearson.cpp).
  double p_a_ = 0.0;
  double p_b_ = 0.0;
  double p_c_ = 0.0;
  double p_d_ = 0.0;
  // Exact mean/stddev of the raw family draw, used to standardize.
  double raw_mean_ = 0.0;
  double raw_sd_ = 1.0;
  // Orientation: -1 when the family was fitted to the mirrored moments.
  double flip_ = 1.0;

  // Type IV inverse CDF at the knots of detail::type_iv_grid(), and its
  // guide table (see detail::guided_index).
  std::vector<double> iv_cdf_;
  std::vector<std::uint16_t> iv_guide_;
};

namespace detail {

/// Intervals of the type IV table: kTypeIVGrid + 1 knots over
/// theta in (-pi/2, pi/2).
inline constexpr std::size_t kTypeIVGrid = 4096;
/// Buckets of a guide table over [0, 1). A power of two, so the bucket of
/// u, floor(u * kGuideBuckets), is computed exactly.
inline constexpr std::size_t kGuideBuckets = 4096;

/// The moment-independent part of every type IV table, computed once per
/// process on first use (thread-safe) and shared by all samplers.
struct TypeIVGrid {
  std::array<double, kTypeIVGrid + 1> theta;    ///< the knots
  std::array<double, kTypeIVGrid + 1> log_cos;  ///< std::log(std::cos(theta))
};
const TypeIVGrid& type_iv_grid();

/// Normalized trapezoid CDF at the grid knots of the type IV density in
/// theta = arctan((x - lambda) / a), proportional to
/// cos(theta)^(2m-2) * exp(-nu * theta). Nondecreasing, front() == 0 and
/// back() == 1 exactly.
std::vector<double> type_iv_cdf(double m, double nu);

/// Guide table of a CDF (Chen & Asau): entry j is the first index whose
/// value is >= j / kGuideBuckets. `cdf` must be nondecreasing with
/// back() == 1 and at most 65536 entries.
std::vector<std::uint16_t> build_guide(std::span<const double> cdf);

/// The index std::lower_bound(cdf, u) returns, for u in [0, 1), found by
/// starting at the guide entry of u's bucket and walking forward.
std::size_t guided_index(std::span<const double> cdf,
                         std::span<const std::uint16_t> guide, double u);

}  // namespace detail

/// One-shot convenience: n draws matching `target`.
std::vector<double> pearsrnd(const stats::Moments& target, std::size_t n,
                             Rng& rng);

}  // namespace varpred::pearson
