/// \file bench_fig7_changepoint.cpp
/// \brief Regenerates **Fig. 7** — "A changepoint is detected when faults
///        are inserted in a ReRAM crossbar after cycle 600" — plus the
///        ML-based faulty-cell-fraction estimator of [52].
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "memtest/power_monitor.hpp"
#include "obs/dataset.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace cim;

namespace {

crossbar::CrossbarConfig array_cfg(std::uint64_t seed) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  cfg.levels = 16;
  cfg.model_ir_drop = false;
  cfg.seed = seed;
  return cfg;
}

void program_random(crossbar::Crossbar& xbar, util::Rng& rng) {
  util::Matrix lv(xbar.rows(), xbar.cols());
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
  xbar.program_levels(lv);
}

}  // namespace

int main() {
  bench::WallTimer total;
  // --- the Fig. 7 scenario: faults at cycle 600 -----------------------------
  {
    util::Table t({"faulty cells", "alarm cycle", "detection delay",
                   "located changepoint", "power shift (rel)"});
    t.set_title("Fig. 7 — changepoint detection, faults inserted after cycle 600");
    // Stuck-at-0 faults, as in the paper's accuracy study: a one-sided
    // conductance shift the power monitor sees directly (a mixed SA0/SA1
    // population can partially cancel in total power).
    fault::FaultMix sa0_only;
    sa0_only.sa0 = 1.0;
    sa0_only.sa1 = sa0_only.transition = sa0_only.write_variation = 0.0;
    sa0_only.read_disturb = sa0_only.write_disturb = sa0_only.over_forming = 0.0;

    for (const std::size_t n_faults : {30u, 60u, 120u, 240u}) {
      util::Rng rng(n_faults);
      crossbar::Crossbar xbar(array_cfg(n_faults + 1));
      program_random(xbar, rng);
      const auto map = fault::FaultMap::with_fault_count(32, 32, n_faults,
                                                         sa0_only, rng);

      memtest::MonitorConfig cfg;
      cfg.cycles = 1200;
      const auto run = memtest::run_monitored_workload(xbar, cfg, rng, &map, 600);

      obs::StreamStat pre, post;
      for (std::size_t i = 0; i < run.power_mw.size(); ++i)
        (i < 600 ? pre : post).add(run.power_mw[i]);

      t.add_row(
          {std::to_string(n_faults),
           run.alarm_cycle ? std::to_string(*run.alarm_cycle) : "none",
           run.alarm_cycle ? std::to_string(*run.alarm_cycle - 600) : "-",
           run.located_changepoint ? std::to_string(*run.located_changepoint)
                                   : "none",
           util::Table::num((post.mean - pre.mean) / pre.mean, 4)});
    }
    t.print(std::cout);
  }

  // --- the ML fault-rate estimator ------------------------------------------
  {
    util::Rng rng(77);
    auto cfg = array_cfg(0);
    cfg.rows = cfg.cols = 16;
    memtest::MonitorConfig mon;
    mon.cycles = 700;
    mon.cusum.warmup = 150;

    const auto train =
        memtest::FaultRateEstimator::generate_training_data(cfg, mon, 60, rng);
    memtest::FaultRateEstimator est;
    est.train(train);

    const auto holdout =
        memtest::FaultRateEstimator::generate_training_data(cfg, mon, 15, rng);
    std::vector<double> pred, truth;
    util::Table t({"true fault fraction", "estimated fraction", "abs error"});
    t.set_title("ML fault-rate estimator [52] — held-out examples");
    for (const auto& ex : holdout) {
      const double p = est.estimate(ex.features);
      pred.push_back(p);
      truth.push_back(ex.fault_fraction);
      t.add_row({util::Table::num(ex.fault_fraction, 3),
                 util::Table::num(p, 3),
                 util::Table::num(std::abs(p - ex.fault_fraction), 3)});
    }
    t.print(std::cout);
    std::cout << "train R^2 = " << util::Table::num(est.r2(train), 3)
              << ", held-out correlation = "
              << util::Table::num(util::pearson(pred, truth), 3) << "\n";
  }
  std::cout << "shape check: alarm lands shortly after cycle 600, the offline "
               "locator pins the changepoint near 600, the power shift and "
               "estimator output grow with the fault fraction.\n";
  bench::report("bench_fig7_changepoint", total.elapsed_ms(), 4.0 * 1200.0 + 75.0 * 700.0);
  return 0;
}
