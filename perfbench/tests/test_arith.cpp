// The benchmark's own arithmetic on synthetic inputs: the tail rule, the
// max_qps ladder selection, and self-time subtraction.
#include <gtest/gtest.h>

#include <vector>

#include "arith.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(TailRule, CountsSamplesBeyondTheQuantileRank) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.5), 50u);
  EXPECT_EQ(samples_beyond(1, 0.5), 0u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
  EXPECT_EQ(samples_beyond(10, 1.0), 0u);
}

TEST(TailRule, ReportsAPercentileOnlyWithTenBeyond) {
  EXPECT_TRUE(tail_reportable(1000, 0.99));
  EXPECT_FALSE(tail_reportable(999, 0.99));
  EXPECT_TRUE(tail_reportable(10000, 0.999));
  EXPECT_FALSE(tail_reportable(9999, 0.999));
  EXPECT_TRUE(tail_reportable(20, 0.5));
  EXPECT_FALSE(tail_reportable(19, 0.5));
}

Rung rung(double rate, double p99_ms, std::uint64_t failed = 0,
          double lag_ms = 0.1, std::uint64_t backlog = 0,
          std::uint64_t count = 2000) {
  Rung r;
  r.rate_qps = rate;
  r.count = count;
  r.failed = failed;
  r.p99_ms = p99_ms;
  r.gen_lag_p99_ms = lag_ms;
  r.backlog = backlog;
  return r;
}

const RungLimits kLimits{10.0, 2.0, 4};

TEST(Ladder, ARungMeetsOnlyEveryLimit) {
  EXPECT_TRUE(rung_met(rung(1000, 10.0), kLimits));
  EXPECT_FALSE(rung_met(rung(1000, 10.01), kLimits));
  EXPECT_FALSE(rung_met(rung(1000, 1.0, /*failed=*/1), kLimits));
  EXPECT_FALSE(rung_met(rung(1000, 1.0, 0, /*lag_ms=*/2.5), kLimits));
  EXPECT_FALSE(rung_met(rung(1000, 1.0, 0, 0.1, /*backlog=*/5), kLimits));
  // Too few samples beyond p99 to report it.
  EXPECT_FALSE(rung_met(rung(1000, 1.0, 0, 0.1, 0, /*count=*/500), kLimits));
}

TEST(Ladder, SelectsTheHighestMetRate) {
  const std::vector<Rung> rungs = {rung(2000, 3.0), rung(2500, 4.0),
                                   rung(3000, 30.0), rung(3500, 6.0),
                                   rung(4000, 50.0)};
  // A met rung above a missed one still counts.
  EXPECT_EQ(select_max_qps(rungs, kLimits), 3500.0);
  EXPECT_EQ(select_max_qps({}, kLimits), 0.0);
  EXPECT_EQ(select_max_qps(std::vector<Rung>{rung(2000, 99.0)}, kLimits), 0.0);
}

TEST(Ladder, StopsAfterTwoMissesInARow) {
  std::vector<Rung> rungs = {rung(2000, 3.0), rung(2500, 30.0)};
  EXPECT_FALSE(ladder_done(rungs, kLimits));
  rungs.push_back(rung(3000, 3.0));
  EXPECT_FALSE(ladder_done(rungs, kLimits));
  rungs.push_back(rung(3500, 30.0));
  rungs.push_back(rung(4000, 1.0, /*failed=*/3));
  EXPECT_TRUE(ladder_done(rungs, kLimits));
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  // Sequential children.
  EXPECT_EQ(self_time(0, 100, {{10, 20}, {30, 50}}), 70u);
  // Parallel children overlap: the union counts once.
  EXPECT_EQ(self_time(0, 100, {{10, 60}, {20, 70}, {30, 40}}), 40u);
  // Children reaching outside the parent are clipped to it.
  EXPECT_EQ(self_time(100, 200, {{50, 150}, {180, 260}}), 30u);
  // Fully covered, and no children.
  EXPECT_EQ(self_time(0, 100, {{0, 100}, {0, 50}}), 0u);
  EXPECT_EQ(self_time(0, 100, {}), 100u);
  EXPECT_EQ(covered_length({{5, 10}, {0, 3}, {8, 12}}, 0, 100), 10u);
}

TEST(SelfTime, TotalsFollowParentLinksAcrossThreads) {
  // A root with a sequential child on its own thread and two children that
  // ran on other threads, overlapping in time.
  const std::vector<SpanRecord> spans = {
      {"bench.run", 1, 0, 0, 1000},
      {"core.profile", 2, 1, 0, 100},
      {"bench.fold", 3, 1, 200, 700},
      {"bench.fold", 4, 1, 300, 800},
      {"ml.fit.RF", 5, 3, 200, 600},
      {"ml.fit.RF", 6, 4, 300, 800},
  };
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("bench.run").self_ns, 1000u - 100u - 600u);
  EXPECT_EQ(totals.at("bench.fold").calls, 2u);
  EXPECT_EQ(totals.at("bench.fold").total_ns, 1000u);
  EXPECT_EQ(totals.at("bench.fold").self_ns, 100u);
  EXPECT_EQ(totals.at("ml.fit.RF").self_ns, 900u);
  // Grandchildren count toward coverage of the root.
  EXPECT_EQ(covered_by(spans, 1,
                       [](std::string_view n) { return n == "ml.fit.RF"; }),
            600u);
  EXPECT_EQ(covered_by(spans, 3,
                       [](std::string_view n) { return n == "ml.fit.RF"; }),
            400u);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
