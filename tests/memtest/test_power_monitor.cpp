#include "memtest/power_monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/dataset.hpp"
#include "util/stats.hpp"

namespace cim::memtest {
namespace {

crossbar::CrossbarConfig cfg32() {
  crossbar::CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.levels = 16;
  cfg.model_ir_drop = false;
  cfg.seed = 31;
  return cfg;
}

void program_random(crossbar::Crossbar& xbar, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix lv(xbar.rows(), xbar.cols());
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
  xbar.program_levels(lv);
}

TEST(PowerMonitor, CleanRunRaisesNoAlarm) {
  crossbar::Crossbar xbar(cfg32());
  program_random(xbar, 3);
  util::Rng rng(3);
  MonitorConfig cfg;
  cfg.cycles = 1000;
  const auto run = run_monitored_workload(xbar, cfg, rng);
  EXPECT_EQ(run.power_mw.size(), 1000u);
  EXPECT_FALSE(run.alarm_cycle.has_value());
}

TEST(PowerMonitor, Fig7FaultsAfterCycle600AreDetected) {
  // Fig. 7: "a changepoint is detected when faults are inserted in a ReRAM
  // crossbar after cycle 600".
  crossbar::Crossbar xbar(cfg32());
  program_random(xbar, 5);
  util::Rng rng(5);
  const auto map = fault::FaultMap::with_fault_count(
      32, 32, 100, fault::FaultMix::stuck_at_only(), rng);

  MonitorConfig cfg;
  cfg.cycles = 1200;
  const auto run = run_monitored_workload(xbar, cfg, rng, &map, 600);
  ASSERT_TRUE(run.alarm_cycle.has_value());
  EXPECT_GE(*run.alarm_cycle, 600u);
  EXPECT_LE(*run.alarm_cycle, 750u);  // short detection delay
  ASSERT_TRUE(run.located_changepoint.has_value());
  EXPECT_NEAR(static_cast<double>(*run.located_changepoint), 600.0, 50.0);
}

TEST(PowerMonitor, PowerShiftsWhenFaultsLand) {
  crossbar::Crossbar xbar(cfg32());
  program_random(xbar, 7);
  util::Rng rng(7);
  const auto map = fault::FaultMap::with_fault_count(
      32, 32, 150, fault::FaultMix::stuck_at_only(), rng);
  MonitorConfig cfg;
  cfg.cycles = 1200;
  const auto run = run_monitored_workload(xbar, cfg, rng, &map, 600);
  // On the seasonally adjusted residuals the fault-induced shift stands
  // far above the pre-change noise floor.
  obs::StreamStat pre, post;
  const std::size_t cp = 600 - run.calibration_cycles;
  for (std::size_t i = 0; i < run.residual_mw.size(); ++i)
    (i < cp ? pre : post).add(run.residual_mw[i]);
  EXPECT_GT(std::abs(post.mean - pre.mean), 3.0 * pre.stddev());
}

TEST(PowerMonitor, FeatureExtractionShapes) {
  std::vector<double> power(100, 1.0);
  for (std::size_t i = 50; i < 100; ++i) power[i] = 2.0;
  const auto f = extract_features(power, 50);
  EXPECT_NEAR(f.post_mean, 2.0, 1e-9);
  EXPECT_NEAR(f.delta_mean, 1.0, 1e-9);
  // Pre-change segment is exactly constant: the standardized shift degrades
  // gracefully to zero rather than dividing by zero.
  EXPECT_DOUBLE_EQ(f.relative_shift, 0.0);
  EXPECT_EQ(f.to_vector().size(), PowerFeatures::dim());
}

TEST(PowerMonitor, FeatureExtractionDegenerateInputs) {
  const auto empty = extract_features({}, 10);
  EXPECT_EQ(empty.post_mean, 0.0);
  const auto tail = extract_features({1.0, 2.0}, 99);  // clamped changepoint
  EXPECT_NE(tail.post_mean, 0.0);
}

/// Pearson correlation of `est`'s estimates with the truth on `holdout`.
double holdout_pearson(const FaultRateEstimator& est,
                       const std::vector<FaultRateEstimator::Example>& holdout) {
  std::vector<double> pred, truth;
  for (const auto& ex : holdout) {
    pred.push_back(est.estimate(ex.features));
    truth.push_back(ex.fault_fraction);
  }
  return util::pearson(pred, truth);
}

// One 12-example hold-out correlation is a single noisy draw, so the row
// judges the estimator by medians over independent draws from one master
// generator: each trains on 40 examples and holds out 12. A control trained
// on the same examples with their labels shuffled must not clear the bar.
TEST(PowerMonitor, EstimatorLearnsFaultFraction) {
  util::Rng rng(11);
  auto array_cfg = cfg32();
  array_cfg.rows = array_cfg.cols = 16;  // keep training quick
  MonitorConfig mon;
  mon.cycles = 700;
  mon.cusum.warmup = 150;

  constexpr int kDraws = 9;
  std::vector<double> r2, pearson, control;
  for (int d = 0; d < kDraws; ++d) {
    auto examples =
        FaultRateEstimator::generate_training_data(array_cfg, mon, 40, rng);
    ASSERT_EQ(examples.size(), 40u);
    const auto holdout =
        FaultRateEstimator::generate_training_data(array_cfg, mon, 12, rng);

    FaultRateEstimator est;
    est.train(examples);
    ASSERT_TRUE(est.trained());
    r2.push_back(est.r2(examples));
    pearson.push_back(holdout_pearson(est, holdout));

    const auto perm = rng.permutation(examples.size());
    auto shuffled = examples;
    for (std::size_t i = 0; i < perm.size(); ++i)
      shuffled[i].fault_fraction = examples[perm[i]].fault_fraction;
    FaultRateEstimator blind;
    blind.train(shuffled);
    control.push_back(holdout_pearson(blind, holdout));
  }
  EXPECT_GT(util::summarize(r2).median, 0.5);
  EXPECT_GT(util::summarize(pearson).median, 0.6);
  EXPECT_LT(util::summarize(control).median, 0.6);
}

TEST(PowerMonitor, EstimateClampedToUnitInterval) {
  util::Rng rng(13);
  std::vector<FaultRateEstimator::Example> examples;
  for (int i = 0; i < 10; ++i) {
    FaultRateEstimator::Example ex;
    ex.features.post_mean = i;
    ex.features.delta_mean = i;
    ex.fault_fraction = 0.1 * i;
    examples.push_back(ex);
  }
  FaultRateEstimator est;
  est.train(examples);
  PowerFeatures wild;
  wild.post_mean = 1e9;
  wild.delta_mean = 1e9;
  const double p = est.estimate(wild);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

}  // namespace
}  // namespace cim::memtest
