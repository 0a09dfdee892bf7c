// Leave-one-benchmark-out (LOGO-CV) passes over a list of evaluation cells.
//
// An untraced pass calls the library's own entry points,
// core::evaluate_few_runs and core::evaluate_cross_system, exactly as the
// `varpred evaluate` path does. A traced pass recomposes the same fold loop
// from the layers' public calls — build_profile, DistributionRepr::encode
// and ::reconstruct, Regressor::fit and ::predict, the three scores — with a
// span around each call. Both passes must give bitwise equal per-benchmark
// KS vectors; the caller checks that, so a traced pass that drifted from the
// library's evaluator fails the run instead of timing other work.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/distrepr.hpp"
#include "core/models.hpp"
#include "measure/corpus.hpp"

namespace perfbench {

struct Cell {
  /// Use case 1 (few runs, one corpus) when `target` is null; use case 2
  /// (source -> target system) otherwise.
  const varpred::measure::Corpus* source = nullptr;
  const varpred::measure::Corpus* target = nullptr;
  varpred::core::ReprKind repr = varpred::core::ReprKind::kPearson;
  varpred::core::ModelKind model = varpred::core::ModelKind::kKnn;
  /// Score KS, W1 and overlap and feed the quality recorder (otherwise KS
  /// only, as the evaluator does without quality labels).
  bool quality = false;

  std::string label() const;
};

struct PassResult {
  double seconds = 0.0;
  std::vector<std::vector<double>> ks;  ///< per cell, per benchmark
  /// Mean over cells of each cell's mean KS.
  double ks_mean() const;
};

/// Counts a traced pass gathers beside its spans.
struct PassCounts {
  std::uint64_t fit_calls = 0;
  double fit_cells = 0.0;  ///< sum over fits of rows x features x trees
  /// Pearson family of each PearsonRnd prediction, indexed by PearsonType.
  std::array<std::uint64_t, 8> pearson_types{};
  std::uint64_t maxent_uniform_fallbacks = 0;
};

/// One untraced pass through the library's evaluator.
PassResult run_pass(const std::vector<Cell>& cells);

/// One pass recomposed from the layers' public calls, with spans (when a
/// Tracer is installed) and counts.
PassResult run_pass_traced(const std::vector<Cell>& cells, PassCounts& counts);

/// Recomputes `per_cell` seeded held-out folds of every cell through the
/// evaluator's single-fold entry points (predict_held_out_*, without the
/// fold-shared cache) and returns how many KS values differ from `pass`.
std::size_t spot_check(const std::vector<Cell>& cells, const PassResult& pass,
                       std::size_t per_cell, std::uint64_t seed);

}  // namespace perfbench
