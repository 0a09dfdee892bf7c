// The benchmark's own arithmetic, kept free of I/O so it can be tested on
// synthetic inputs (perfbench/tests/test_arith.cpp):
//
//   * the tail rule: a percentile is reported only when at least
//     kMinBeyond samples lie beyond it;
//   * the max_qps ladder: which rung rates count as met, and the highest
//     met rate;
//   * self time: a span's duration minus the part of its interval that its
//     child spans cover (children may run in parallel on other threads, so
//     the covered part is the length of the union of their intervals).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr std::uint64_t kMinBeyond = 10;

/// Samples strictly beyond the q-quantile of `count` samples, where the
/// q-quantile is the rank-ceil(q * count) smallest sample (the rank
/// obs::HdrSnapshot::quantile uses).
std::uint64_t samples_beyond(std::uint64_t count, double q);

/// True when the q-quantile of `count` samples has >= kMinBeyond beyond it.
bool tail_reportable(std::uint64_t count, double q);

/// One open-loop rate point of the ladder.
struct Rung {
  double rate_qps = 0.0;
  std::uint64_t count = 0;      ///< requests sent
  std::uint64_t failed = 0;     ///< failed or refused requests
  double p99_ms = 0.0;          ///< latency from the scheduled send time
  double gen_lag_p99_ms = 0.0;  ///< generator lateness of its own making
  std::uint64_t backlog = 0;    ///< due but unsent requests at the deadline
};

/// Limits a rung must meet.
struct RungLimits {
  double p99_ms = 0.0;          ///< the latency limit on p99
  double gen_lag_p99_ms = 0.0;  ///< above this the generator did not keep up
  std::uint64_t max_backlog = 0;
};

/// A rung is met when its p99 is reportable and within the limit, nothing
/// failed, the generator kept its schedule, and no backlog built up.
bool rung_met(const Rung& rung, const RungLimits& limits);

/// The ladder is climbed in ascending rate order and stops after this many
/// consecutive rungs that are not met.
inline constexpr std::size_t kLadderStopAfterMisses = 2;

/// True when the rungs run so far end in kLadderStopAfterMisses misses.
bool ladder_done(std::span<const Rung> rungs, const RungLimits& limits);

/// Highest rate among the met rungs; 0 when none was met.
double select_max_qps(std::span<const Rung> rungs, const RungLimits& limits);

/// Length of the union of [begin, end) intervals clipped to [lo, hi).
std::uint64_t covered_length(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi);

/// Self time of a span [begin, end) whose children occupy `children`.
std::uint64_t self_time(
    std::uint64_t begin, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children);

/// Median of a sample (0 when empty); the input is copied.
double median(std::vector<double> values);

}  // namespace perfbench
