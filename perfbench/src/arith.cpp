#include "arith.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t samples_beyond(std::uint64_t count, double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the quantile sample, computed in long double so q = 0.99 and
  // count = 1000 give rank 990 rather than 991 from a rounding excess.
  const long double exact =
      static_cast<long double>(q) * static_cast<long double>(count);
  auto rank = static_cast<std::uint64_t>(std::ceil(exact - 1e-9L));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  return count - rank;
}

bool tail_reportable(std::uint64_t count, double q) {
  return samples_beyond(count, q) >= kMinBeyond;
}

bool rung_met(const Rung& rung, const RungLimits& limits) {
  return rung.count > 0 && rung.failed == 0 &&
         tail_reportable(rung.count, 0.99) && rung.p99_ms <= limits.p99_ms &&
         rung.gen_lag_p99_ms <= limits.gen_lag_p99_ms &&
         rung.backlog <= limits.max_backlog;
}

bool ladder_done(std::span<const Rung> rungs, const RungLimits& limits) {
  if (rungs.size() < kLadderStopAfterMisses) return false;
  return std::none_of(rungs.end() - kLadderStopAfterMisses, rungs.end(),
                      [&](const Rung& r) { return rung_met(r, limits); });
}

double select_max_qps(std::span<const Rung> rungs, const RungLimits& limits) {
  double best = 0.0;
  for (const Rung& r : rungs) {
    if (rung_met(r, limits)) best = std::max(best, r.rate_qps);
  }
  return best;
}

std::uint64_t covered_length(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t reach = lo;  // everything below `reach` is already counted
  for (auto [b, e] : intervals) {
    b = std::max(b, reach);
    e = std::min(e, hi);
    if (e <= b) continue;
    total += e - b;
    reach = e;
  }
  return total;
}

std::uint64_t self_time(
    std::uint64_t begin, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  if (end <= begin) return 0;
  return (end - begin) - covered_length(std::move(children), begin, end);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
