/// The serving window series (serve/window.hpp): window indexing by
/// simulated time, in-order closing, the per-window latency buckets, and the
/// burn-rate / error-budget arithmetic at the fixed alert policy (fast: the
/// newest window at 14.4x; slow: the trailing 12 windows at 6x) — all
/// hand-computed.
#include "serve/window.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace cim::serve {
namespace {

TEST(WindowSeries, BucketsBySimulatedTimeAndClosesInOrder) {
  WindowSeries ws(100.0, 0.0, 0.999);  // SLO off
  ws.complete(10.0, 300.0);   // window 0
  ws.complete(99.0, 300.0);   // window 0
  ws.complete(150.0, 300.0);  // window 1
  ws.reject(150.0);           // window 1
  EXPECT_EQ(ws.newest_rejected(), 1u);
  ws.complete(420.0, 300.0);  // window 4: quiet windows 2 and 3 never open
  EXPECT_EQ(ws.newest_rejected(), 0u);
  ws.finish();

  const auto& w = ws.windows();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].index, 0u);
  EXPECT_DOUBLE_EQ(w[0].start_ns, 0.0);
  EXPECT_EQ(w[0].completed, 2u);
  EXPECT_EQ(w[1].index, 1u);
  EXPECT_DOUBLE_EQ(w[1].start_ns, 100.0);
  EXPECT_EQ(w[1].completed, 1u);
  EXPECT_EQ(w[1].rejected, 1u);
  // Without an SLO a violation is a rejection, and nothing burns.
  EXPECT_EQ(w[1].slo_violations, 1u);
  EXPECT_EQ(w[1].burn_rate, 0.0);
  EXPECT_EQ(w[2].index, 4u);
  EXPECT_DOUBLE_EQ(w[2].start_ns, 400.0);
  EXPECT_FALSE(ws.slo().enabled);
}

TEST(WindowSeries, NegativeAndNanTimesClampToWindowZero) {
  WindowSeries ws(100.0, 0.0, 0.999);
  ws.complete(-50.0, 300.0);
  ws.complete(std::numeric_limits<double>::quiet_NaN(), 300.0);
  ws.reject(0.0);
  ws.finish();
  ASSERT_EQ(ws.windows().size(), 1u);
  EXPECT_EQ(ws.windows()[0].index, 0u);
  EXPECT_EQ(ws.windows()[0].completed, 2u);
  EXPECT_EQ(ws.windows()[0].rejected, 1u);
}

TEST(WindowSeries, PerWindowQuantilesAndCounts) {
  WindowSeries ws(1000.0, 0.0, 0.999);
  // Window 0: two latencies in the first bucket (0, 250], two in (250, 500].
  for (const double l : {100.0, 200.0, 300.0, 400.0}) ws.complete(10.0, l);
  // Window 1: overflow only, and a rejection-only window 2.
  ws.complete(1500.0, 1.0e9);
  ws.reject(2500.0);
  ws.finish();

  const auto& w = ws.windows();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].completed, 4u);
  EXPECT_DOUBLE_EQ(w[0].rate_rps, 4.0e6);  // 4 per 1 us
  // p50: rank 2 fills bucket 0 exactly -> its upper bound, 250.
  EXPECT_DOUBLE_EQ(w[0].p50_ns, 250.0);
  // p99: rank 3.96 is 1.96 of bucket 1's 2 -> 250 + 250 * 0.98 = 495.
  EXPECT_DOUBLE_EQ(w[0].p99_ns, 495.0);
  // Overflow ranks clamp to the largest bound, 250 * 2^13.
  EXPECT_DOUBLE_EQ(w[1].p50_ns, latency_bounds().back());
  EXPECT_DOUBLE_EQ(w[1].p50_ns, 2.048e6);
  // No completions: no rate and no quantiles.
  EXPECT_EQ(w[2].completed, 0u);
  EXPECT_EQ(w[2].rate_rps, 0.0);
  EXPECT_EQ(w[2].p99_ns, 0.0);
}

TEST(WindowSeries, RejectsInvalidShape) {
  EXPECT_THROW(WindowSeries(0.0, 0.0, 0.999), std::invalid_argument);
  EXPECT_THROW(WindowSeries(-1.0, 0.0, 0.999), std::invalid_argument);
  EXPECT_THROW(WindowSeries(std::nan(""), 0.0, 0.999), std::invalid_argument);
  // The objective only matters with the SLO on.
  EXPECT_NO_THROW(WindowSeries(10.0, 0.0, 1.5));
  EXPECT_THROW(WindowSeries(10.0, 100.0, 1.0), std::invalid_argument);
  EXPECT_THROW(WindowSeries(10.0, 100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(WindowSeries(10.0, 100.0, std::nan("")), std::invalid_argument);
}

// Objective 0.95: a 5% budget, so burn = violation fraction / 0.05, at
// most 20x. The fast alert needs a window at >= 72% violations, the slow
// alert a trailing-12-window fraction >= 30%. 1 - 0.95 is not exactly
// 0.05 in binary, so burn rates match their decimal values only to ~1e-15.
constexpr double kTarget = 100.0;
constexpr double kObjective = 0.95;

TEST(SloTracker, BurnRateAndBudgetHandComputed) {
  WindowSeries slo(1000.0, kTarget, kObjective);
  // Window 0: 8 good, 2 bad -> violation 0.2, burn 4 (no alert).
  for (int i = 0; i < 8; ++i) slo.complete(100.0 * i, 50.0);
  slo.complete(800.0, 200.0);
  slo.reject(900.0);  // a rejection counts as bad
  // Window 1: 3 good, 7 bad -> burn 14, just under the fast 14.4x; the
  // trailing burn over windows 0-1 is 9/20 / 0.05 = 9 >= 6: slow onset.
  for (int i = 0; i < 3; ++i) slo.complete(1000.0 + i, 50.0);
  for (int i = 0; i < 7; ++i) slo.complete(1500.0 + i, 500.0);
  EXPECT_EQ(slo.slo().slow_alerts, 0u);  // window 1 is still open
  slo.finish();

  const auto& w = slo.windows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].completed, 9u);
  EXPECT_EQ(w[0].rejected, 1u);
  EXPECT_EQ(w[0].slo_violations, 2u);
  EXPECT_NEAR(w[0].burn_rate, 4.0, 1e-12);
  EXPECT_EQ(w[1].slo_violations, 7u);
  EXPECT_NEAR(w[1].burn_rate, 14.0, 1e-12);

  const SloSummary& sum = slo.slo();
  EXPECT_TRUE(sum.enabled);
  EXPECT_EQ(sum.good, 11u);
  EXPECT_EQ(sum.bad, 9u);
  // budget = bad / ((good + bad) * (1 - objective)) = 9 / (20 * 0.05) = 9
  EXPECT_NEAR(sum.budget_consumed, 9.0, 1e-12);
  EXPECT_EQ(sum.fast_alerts, 0u);
  EXPECT_EQ(sum.slow_alerts, 1u);
  EXPECT_TRUE(sum.breached);  // budget overspent, no fast alert
  EXPECT_DOUBLE_EQ(sum.first_breach_ns, 0.0);  // the first window's start
}

TEST(SloTracker, FastAlertCountsOnsetsNotWindows) {
  WindowSeries slo(1000.0, kTarget, kObjective);
  // Three consecutive all-bad windows: burn 20 >= 14.4 in each, but the
  // level-triggered alert fires once at onset, not per window.
  for (int w = 0; w < 3; ++w)
    for (int i = 0; i < 5; ++i) slo.complete(1000.0 * w + i, 500.0);
  // A clean window drops the fast level; the trailing-12 burn stays at
  // 15/35 / 0.05 = 8.6 >= 6, so the slow alert holds its one onset.
  for (int i = 0; i < 20; ++i) slo.complete(3000.0 + i, 10.0);
  // A second cliff: a second fast onset.
  for (int i = 0; i < 5; ++i) slo.complete(4000.0 + i, 500.0);
  slo.finish();

  const SloSummary& sum = slo.slo();
  EXPECT_EQ(sum.fast_alerts, 2u);
  EXPECT_EQ(sum.slow_alerts, 1u);
  EXPECT_TRUE(sum.breached);
  EXPECT_DOUBLE_EQ(sum.first_breach_ns, 0.0);  // first bad window starts at 0
}

TEST(SloTracker, SlowAlertSpansTwelveWindowIndices) {
  WindowSeries slo(1000.0, kTarget, kObjective);
  const auto fill = [&](std::uint64_t window, double latency_ns) {
    for (int i = 0; i < 10; ++i)
      slo.complete(1000.0 * static_cast<double>(window) + i, latency_ns);
  };
  fill(0, 500.0);  // all bad: fast and slow onsets
  // Window 11 is clean, but window 0 is still one of the trailing 12
  // indices: burn 10/20 / 0.05 = 10 >= 6, so the slow level holds.
  fill(11, 10.0);
  // Window 12 is all bad again: a second fast onset, while the slow
  // level, never dropped, counts no second onset.
  fill(12, 500.0);
  slo.finish();
  EXPECT_EQ(slo.slo().fast_alerts, 2u);
  EXPECT_EQ(slo.slo().slow_alerts, 1u);
}

TEST(SloTracker, CleanRunDoesNotBreach) {
  WindowSeries slo(1000.0, kTarget, kObjective);
  for (int i = 0; i < 1000; ++i) slo.complete(10.0 * i, 50.0);
  slo.finish();
  const SloSummary& sum = slo.slo();
  EXPECT_EQ(sum.good, 1000u);
  EXPECT_EQ(sum.bad, 0u);
  EXPECT_DOUBLE_EQ(sum.budget_consumed, 0.0);
  EXPECT_EQ(sum.fast_alerts, 0u);
  EXPECT_EQ(sum.slow_alerts, 0u);
  EXPECT_FALSE(sum.breached);
  EXPECT_DOUBLE_EQ(sum.first_breach_ns, -1.0);
}

}  // namespace
}  // namespace cim::serve
