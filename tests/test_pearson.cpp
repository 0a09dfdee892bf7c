// Tests for the Pearson system: classification against the classical type
// regions, a property-based sweep verifying that sampled moments match
// the requested (mean, sd, skewness, kurtosis) across all seven families,
// and golden hashes pinning every bit of seeded draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/crosssystem.hpp"
#include "core/distrepr.hpp"
#include "io/serialize.hpp"
#include "measure/corpus.hpp"
#include "pearson/pearson.hpp"
#include "serve/server.hpp"
#include "stats/moments.hpp"

namespace varpred::pearson {
namespace {

stats::Moments make_moments(double mean, double sd, double skew, double kurt) {
  stats::Moments m;
  m.mean = mean;
  m.stddev = sd;
  m.skewness = skew;
  m.kurtosis = kurt;
  return m;
}

// FNV-1a-64 over the raw bytes of a draw vector: any changed bit of any
// draw changes the hash.
std::uint64_t draw_hash(const std::vector<double>& xs) {
  return io::fnv1a64(std::string_view(reinterpret_cast<const char*>(xs.data()),
                                      xs.size() * sizeof(double)));
}

std::uint64_t seeded_draw_hash(const stats::Moments& target) {
  const PearsonSampler sampler(target);
  Rng rng(2025);
  return draw_hash(sampler.sample_many(rng, 2000));
}

// Declared first in this file so that a run of the whole binary, like a
// single ctest case, meets the first use of the shared type IV grid here.
TEST(PearsonConcurrency, FirstUseFromFourWorkersMatchesSerialDraws) {
  std::vector<stats::Moments> targets;
  for (int i = 0; i < 8; ++i) {
    targets.push_back(make_moments(1.0, 0.1, 0.1 * (i - 4) + 0.05,
                                   3.5 + 0.5 * i));
  }
  std::vector<std::uint64_t> concurrent(targets.size());
  ThreadPool pool(4);
  std::atomic<int> arrived{0};
  pool.parallel_for_range(
      targets.size(),
      [&](std::size_t begin, std::size_t end) {
        // Hold each thread's first construction until four have arrived (or
        // a second has passed), so they race for the grid's first use.
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (arrived.load() < 4 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        for (std::size_t i = begin; i < end; ++i) {
          concurrent[i] = seeded_draw_hash(targets[i]);
        }
      },
      1);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(PearsonSampler(targets[i]).type(), PearsonType::kTypeIV) << i;
    EXPECT_EQ(concurrent[i], seeded_draw_hash(targets[i])) << i;
  }
}

TEST(Feasibility, BoundaryRule) {
  EXPECT_TRUE(moments_feasible(0.0, 3.0));
  EXPECT_TRUE(moments_feasible(1.0, 2.5));
  EXPECT_FALSE(moments_feasible(1.0, 2.0));   // boundary k = g^2 + 1
  EXPECT_FALSE(moments_feasible(0.0, 0.5));
  EXPECT_FALSE(moments_feasible(std::nan(""), 3.0));
}

TEST(Sanitize, ProjectsIntoFeasibleRegion) {
  auto m = sanitize_moments(make_moments(1.0, 0.1, 2.0, 1.0));
  EXPECT_TRUE(moments_feasible(m.skewness, m.kurtosis));
  m = sanitize_moments(make_moments(1.0, -0.5, 0.0, 3.0));
  EXPECT_GE(m.stddev, 0.0);
  m = sanitize_moments(
      make_moments(std::nan(""), std::nan(""), std::nan(""), std::nan("")));
  EXPECT_TRUE(std::isfinite(m.mean));
  EXPECT_TRUE(moments_feasible(m.skewness, m.kurtosis));
  // Extreme skew is clamped but stays feasible.
  m = sanitize_moments(make_moments(1.0, 0.1, 50.0, 4.0));
  EXPECT_TRUE(moments_feasible(m.skewness, m.kurtosis));
}

TEST(Classify, CanonicalRegions) {
  EXPECT_EQ(classify(0.0, 3.0), PearsonType::kNormal);
  EXPECT_EQ(classify(0.0, 1.8), PearsonType::kTypeII);   // uniform-like
  EXPECT_EQ(classify(0.0, 4.5), PearsonType::kTypeVII);  // heavy symmetric
  // Gamma(k = 4): skew = 1, kurt = 3 + 6/4 = 4.5 exactly on the III line.
  EXPECT_EQ(classify(1.0, 4.5), PearsonType::kTypeIII);
  // Below the gamma line with skew: beta region (type I).
  EXPECT_EQ(classify(0.5, 2.5), PearsonType::kTypeI);
  // Above the gamma line: type IV region.
  EXPECT_EQ(classify(0.5, 4.0), PearsonType::kTypeIV);
  // Far above: type VI region (e.g. inverse-gamma-ish tails).
  EXPECT_EQ(classify(2.0, 12.0), PearsonType::kTypeVI);
  EXPECT_THROW(classify(1.0, 1.5), std::invalid_argument);
}

// The kurtosis of the type V surface at skewness 1, where c1^2 = 4 c0 c2
// (kappa = 1). In the Pearson diagram the VI region sits between the III
// line (kappa = +inf) and the V line, with IV above: kappa decreases
// through 1 as kurtosis grows. Bisects for the crossing between a VI point
// and an IV point.
double type_v_kurtosis_at_unit_skew() {
  const double skew = 1.0;
  double lo = 4.6;   // just above the III line: type VI (kappa >> 1)
  double hi = 8.0;   // well above the V line: type IV (kappa < 1)
  auto disc = [&](double kurt) {
    const double b1 = skew * skew;
    const double c0 = 4.0 * kurt - 3.0 * b1;
    const double c1 = skew * (kurt + 3.0);
    const double c2 = 2.0 * kurt - 3.0 * b1 - 6.0;
    return c1 * c1 / (4.0 * c0 * c2) - 1.0;
  };
  EXPECT_GT(disc(lo), 0.0);
  EXPECT_LT(disc(hi), 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (disc(mid) > 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(Classify, TypeVOnTheBoundary) {
  EXPECT_EQ(classify(1.0, type_v_kurtosis_at_unit_skew()),
            PearsonType::kTypeV);
}

TEST(Sampler, DegenerateSigmaIsPointMass) {
  const PearsonSampler s(make_moments(1.5, 0.0, 0.0, 3.0));
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(s.sample(rng), 1.5);
}

TEST(Sampler, RejectsInfeasible) {
  EXPECT_THROW(PearsonSampler(make_moments(1.0, 0.1, 2.0, 2.0)),
               std::invalid_argument);
  EXPECT_THROW(PearsonSampler(make_moments(1.0, -1.0, 0.0, 3.0)),
               std::invalid_argument);
}

struct MomentTarget {
  double mean;
  double sd;
  double skew;
  double kurt;
  PearsonType expected_type;
};

class PearsonSweep : public ::testing::TestWithParam<MomentTarget> {};

TEST_P(PearsonSweep, SampledMomentsMatchTarget) {
  const auto p = GetParam();
  const auto target = make_moments(p.mean, p.sd, p.skew, p.kurt);
  const PearsonSampler sampler(target);
  EXPECT_EQ(sampler.type(), p.expected_type) << to_string(sampler.type());

  Rng rng(2024);
  stats::MomentAccumulator acc;
  constexpr std::size_t kN = 400000;
  for (std::size_t i = 0; i < kN; ++i) acc.add(sampler.sample(rng));
  const auto m = acc.moments();

  EXPECT_NEAR(m.mean, p.mean, 0.02 * std::max(1.0, std::fabs(p.mean)));
  EXPECT_NEAR(m.stddev, p.sd, 0.03 * p.sd + 0.002);
  EXPECT_NEAR(m.skewness, p.skew, 0.12 + 0.05 * std::fabs(p.skew));
  // The 4th moment converges slowly; accept a proportional band.
  EXPECT_NEAR(m.kurtosis, p.kurt, 0.05 * p.kurt + 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, PearsonSweep,
    ::testing::Values(
        // Normal
        MomentTarget{1.0, 0.05, 0.0, 3.0, PearsonType::kNormal},
        // Type II: symmetric platykurtic (uniform has kurt 1.8)
        MomentTarget{2.0, 0.5, 0.0, 1.8, PearsonType::kTypeII},
        MomentTarget{0.0, 1.0, 0.0, 2.5, PearsonType::kTypeII},
        // Type VII: symmetric leptokurtic
        MomentTarget{1.0, 0.1, 0.0, 5.0, PearsonType::kTypeVII},
        MomentTarget{-3.0, 2.0, 0.0, 3.8, PearsonType::kTypeVII},
        // Type III: gamma line kurt = 3 + 1.5 skew^2
        MomentTarget{1.0, 0.2, 1.0, 4.5, PearsonType::kTypeIII},
        MomentTarget{1.0, 0.2, -1.0, 4.5, PearsonType::kTypeIII},
        MomentTarget{5.0, 1.0, 0.5, 3.375, PearsonType::kTypeIII},
        // Type I: beta region
        MomentTarget{1.0, 0.1, 0.5, 2.5, PearsonType::kTypeI},
        MomentTarget{1.0, 0.1, -0.5, 2.5, PearsonType::kTypeI},
        MomentTarget{0.0, 1.0, 0.8, 3.2, PearsonType::kTypeI},
        MomentTarget{2.0, 0.3, 1.2, 4.0, PearsonType::kTypeI},
        // Type IV
        MomentTarget{1.0, 0.1, 0.5, 4.0, PearsonType::kTypeIV},
        MomentTarget{1.0, 0.1, -0.5, 4.0, PearsonType::kTypeIV},
        MomentTarget{0.0, 1.0, 1.0, 6.0, PearsonType::kTypeIV},
        MomentTarget{10.0, 2.0, 0.2, 3.5, PearsonType::kTypeIV},
        // Type VI
        MomentTarget{1.0, 0.1, 2.0, 12.0, PearsonType::kTypeVI},
        MomentTarget{1.0, 0.1, -2.0, 12.0, PearsonType::kTypeVI},
        // Between the III line (kurt = 6.375 for skew 1.5) and the V line.
        MomentTarget{0.0, 1.0, 1.5, 6.6, PearsonType::kTypeVI}));

TEST(Sampler, PearsrndConvenienceMatches) {
  Rng rng(7);
  const auto xs = pearsrnd(make_moments(1.0, 0.05, 0.8, 3.6), 50000, rng);
  const auto m = stats::compute_moments(xs);
  EXPECT_NEAR(m.mean, 1.0, 0.01);
  EXPECT_NEAR(m.stddev, 0.05, 0.01);
  EXPECT_NEAR(m.skewness, 0.8, 0.15);
}

TEST(Sampler, DeterministicGivenSeed) {
  const auto target = make_moments(1.0, 0.1, 0.5, 4.0);
  Rng r1(99);
  Rng r2(99);
  const auto a = pearsrnd(target, 100, r1);
  const auto b = pearsrnd(target, 100, r2);
  EXPECT_EQ(a, b);
}

// Golden hashes of 2000 seeded draws per target, one or two per family:
// a change to any bit of any draw fails them.
struct GoldenCase {
  const char* name;
  stats::Moments target;
  PearsonType type;
  std::uint64_t hash;
};

std::vector<GoldenCase> golden_cases() {
  return {
      {"normal", make_moments(1.0, 0.05, 0.0, 3.0), PearsonType::kNormal,
       0x80badfa3646726f3ULL},
      {"I", make_moments(1.0, 0.1, 0.5, 2.5), PearsonType::kTypeI,
       0xc74848713f1b9535ULL},
      {"I_mirrored", make_moments(1.0, 0.1, -0.5, 2.5), PearsonType::kTypeI,
       0x9da29f8b38fd8d39ULL},
      // The sanitizer's kurtosis floor skew^2 + 1 + 0.05 always lies in the
      // type I region (there c2 = -skew^2 - 3.9 < 0).
      {"I_kurtosis_floor",
       sanitize_moments(make_moments(1.0, 0.1, 0.8, 0.0)),
       PearsonType::kTypeI, 0x65dbe85a926e397dULL},
      {"II", make_moments(2.0, 0.5, 0.0, 1.8), PearsonType::kTypeII,
       0x23f1f748c018178dULL},
      {"III", make_moments(1.0, 0.2, 1.0, 4.5), PearsonType::kTypeIII,
       0x852684551439a034ULL},
      {"III_mirrored", make_moments(1.0, 0.2, -1.0, 4.5),
       PearsonType::kTypeIII, 0x226fc2ae000422c8ULL},
      {"IV", make_moments(1.0, 0.1, 0.5, 4.0), PearsonType::kTypeIV,
       0xf1002c9fabbba84cULL},
      {"IV_mirrored", make_moments(1.0, 0.1, -0.5, 4.0),
       PearsonType::kTypeIV, 0xffa04012cf3a9421ULL},
      // At the sanitizer's kurtosis cap of 100.
      {"IV_kurtosis_cap",
       sanitize_moments(make_moments(1.0, 0.02, 0.8, 1e4)),
       PearsonType::kTypeIV, 0x99b29b5b6c9c2d11ULL},
      // Peaked (m = 78): its draws move if a table knot moves by one ulp.
      {"IV_peaked", make_moments(1.0, 0.02, 0.2, 3.1), PearsonType::kTypeIV,
       0x21e96e148d5cdc0bULL},
      // Large exponent m: both tails of the table underflow to flat runs.
      {"IV_underflowed_tails", make_moments(1.0, 0.02, 0.05, 3.01),
       PearsonType::kTypeIV, 0x1591b2cefe8fdb7eULL},
      {"V", make_moments(1.0, 0.1, 1.0, type_v_kurtosis_at_unit_skew()),
       PearsonType::kTypeV, 0x5541ce3251e528eeULL},
      {"VI", make_moments(1.0, 0.1, 2.0, 12.0), PearsonType::kTypeVI,
       0x255de55c13e63413ULL},
      {"VI_mirrored", make_moments(1.0, 0.1, -2.0, 12.0),
       PearsonType::kTypeVI, 0x96be344e0d16bb4dULL},
      {"VII", make_moments(1.0, 0.1, 0.0, 5.0), PearsonType::kTypeVII,
       0xfebe6eb7b6e11d88ULL},
  };
}

TEST(PearsonGolden, SeededDrawsPerFamily) {
  for (const auto& c : golden_cases()) {
    EXPECT_EQ(PearsonSampler(c.target).type(), c.type) << c.name;
    const std::uint64_t hash = seeded_draw_hash(c.target);
    EXPECT_EQ(hash, c.hash) << c.name << std::hex << " 0x" << hash;
  }
}

TEST(PearsonGolden, ReprReconstructOfInfeasiblePrediction) {
  // A regressor's infeasible moments: the sanitizer projects them onto the
  // kurtosis floor before the family fit. (No sanitized target is known to
  // reach the normal fallback; the fit succeeds on all of them.)
  const std::vector<double> encoded = {1.0, 0.1, 3.0, 2.0};
  Rng rng(11);
  const auto xs = core::PearsonRepr().reconstruct(encoded, 2000, rng);
  EXPECT_EQ(draw_hash(xs), 0x5ce47049c8532133ULL)
      << std::hex << draw_hash(xs);
}

TEST(PearsonGolden, ServeComputeAtServePredictShape) {
  // The shape of BM_ServePredict: the PearsonRnd+kNN amd->intel model of the
  // seed-7 corpora (60 benchmarks x 1000 runs), a 10-probe request and 2000
  // samples.
  const auto amd = measure::build_corpus(measure::SystemModel::amd(), 1000, 7);
  const auto intel =
      measure::build_corpus(measure::SystemModel::intel(), 1000, 7);
  core::CrossSystemConfig config;
  config.repr = core::ReprKind::kPearson;
  config.model = core::ModelKind::kKnn;
  serve::LoadedModel model;
  model.predictor = core::CrossSystemPredictor(config);
  model.predictor.train_all(amd, intel);
  const auto runs =
      measure::measure_benchmark(0, measure::SystemModel::amd(), 10, 12345);
  serve::PredictRequest request;
  request.seed = 99;
  request.n_samples = 2000;
  request.n_metrics = static_cast<std::uint32_t>(runs.counters.cols());
  request.runtimes = runs.runtimes;
  for (std::size_t r = 0; r < runs.run_count(); ++r) {
    for (std::size_t m = 0; m < runs.counters.cols(); ++m) {
      request.counters.push_back(runs.counters.at(r, m));
    }
  }
  const auto xs = serve::default_compute(request, model);
  ASSERT_EQ(xs.size(), 2000u);
  EXPECT_EQ(draw_hash(xs), 0x782e8891a1505f63ULL)
      << std::hex << draw_hash(xs);
}

TEST(PearsonGrid, LogCosIsComputedByRuntimeLibm) {
  // Fails when the compiler folds the table into a constant initializer:
  // correctly rounded compile-time values differ from libm's at some knots.
  const auto& grid = detail::type_iv_grid();
  for (std::size_t i = 0; i <= detail::kTypeIVGrid; ++i) {
    const volatile double t = grid.theta[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::log(std::cos(t))),
              std::bit_cast<std::uint64_t>(grid.log_cos[i]))
        << "knot " << i;
  }
}

// Type IV tables from a light-tailed to a very peaked density; the peaked
// ones underflow to long runs of equal values in both tails.
std::vector<std::vector<double>> type_iv_tables() {
  std::vector<std::vector<double>> tables;
  for (const auto& [m, nu] : {std::pair{2.5, 0.0}, std::pair{3.0, -5.0},
                              std::pair{69.0, -68.0}, std::pair{480.0, 10.0},
                              std::pair{1500.0, -400.0}}) {
    tables.push_back(detail::type_iv_cdf(m, nu));
  }
  return tables;
}

std::size_t lower_bound_index(const std::vector<double>& cdf, double u) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(PearsonGuide, GuidedIndexEqualsLowerBoundAtAdversarialPoints) {
  std::size_t longest_flat_run = 0;
  for (const auto& cdf : type_iv_tables()) {
    ASSERT_EQ(cdf.front(), 0.0);
    ASSERT_EQ(cdf.back(), 1.0);
    const auto guide = detail::build_guide(cdf);
    std::size_t run = 0;
    for (std::size_t i = 1; i < cdf.size(); ++i) {
      run = cdf[i] == cdf[i - 1] ? run + 1 : 0;
      longest_flat_run = std::max(longest_flat_run, run);
    }
    std::vector<double> us = {0.0};
    for (const double c : cdf) {
      us.push_back(c);
      us.push_back(std::nextafter(c, 0.0));
      us.push_back(std::nextafter(c, 2.0));
    }
    for (const double u : us) {
      if (u < 0.0 || u >= 1.0) continue;
      ASSERT_EQ(detail::guided_index(cdf, guide, u), lower_bound_index(cdf, u))
          << "u = " << u;
    }
  }
  EXPECT_GT(longest_flat_run, 100u);  // the flat tails are exercised
}

TEST(PearsonGuide, GuidedIndexEqualsLowerBoundOnSeededUniforms) {
  const auto tables = type_iv_tables();
  std::vector<std::vector<std::uint16_t>> guides;
  for (const auto& cdf : tables) guides.push_back(detail::build_guide(cdf));
  Rng rng(314);
  for (int k = 0; k < 100000; ++k) {
    const std::size_t t = static_cast<std::size_t>(k) % tables.size();
    const double u = rng.uniform();
    ASSERT_EQ(detail::guided_index(tables[t], guides[t], u),
              lower_bound_index(tables[t], u))
        << "u = " << u;
  }
}

}  // namespace
}  // namespace varpred::pearson
