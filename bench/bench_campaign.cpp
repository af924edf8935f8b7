/// \file bench_campaign.cpp
/// \brief Gates the adaptive-stopping win of the exp campaign engine: the
///        CI-driven scheduler must finish the same convergence job with at
///        least 30% fewer trials than the fixed-count design.
///
/// The workload is the repo's canonical Monte-Carlo shape — per-technology
/// VMM relative error on small crossbars — which has strongly heterogeneous
/// variance across cells: near-ideal substrates (SRAM) converge in a
/// handful of trials while high-variation analog substrates (ReRAM, PCM)
/// need many. A fixed design must size every cell for the worst one; the
/// adaptive scheduler reinvests trials where the variance is and freezes
/// cells as their confidence interval meets the target.
///
/// Protocol: (1) run the adaptive campaign to the per-cell relative CI
/// target; (2) size a fixed-count campaign at the adaptive run's maximum
/// per-cell trial count (the smallest uniform design that covers the
/// hardest cell); (3) require every cell of BOTH runs to meet the target
/// and adaptive_total <= 0.7 * fixed_total. Exit 1 on a gate violation, so
/// the collect_bench aggregation fails loudly. Both campaigns share the
/// same name/seed/cells/block — trials are identical functions of
/// (seed, cell, rep) — so the comparison is apples-to-apples. Results are
/// bit-identical for any CIM_THREADS.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "exp/campaign.hpp"
#include "obs/dataset.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  const auto techs = device::all_technologies();
  const std::vector<int> level_settings{4, 16};

  struct Cell {
    device::Technology tech;
    int levels;
  };
  std::vector<Cell> cells;
  std::vector<std::string> names;
  for (const auto tech : techs)
    for (const int lv : level_settings) {
      cells.push_back({tech, lv});
      names.push_back(std::string(device::technology_name(tech)) + "/L" +
                      std::to_string(lv));
    }

  exp::CampaignConfig ccfg;
  ccfg.name = "campaign_gate";
  ccfg.seed = 97;
  ccfg.cells = cells.size();
  ccfg.cell_names = names;
  ccfg.block = 8;
  ccfg.min_trials = 16;
  ccfg.max_trials = 2048;
  ccfg.max_blocks_per_round = 4;
  ccfg.ci_confidence = 0.95;
  // Absolute target: required n scales with the cell's variance, which
  // spans more than an order of magnitude between near-ideal (SRAM) and
  // high-variation analog (ReRAM/PCM) substrates — exactly the situation
  // where a uniform design over-samples the easy cells.
  ccfg.ci_target = 4e-4;
  ccfg.pool = &util::ThreadPool::global();
  ccfg = exp::apply_env(ccfg);

  const exp::TrialFn trial = [&](std::size_t cell, std::uint64_t /*rep*/,
                                 util::Rng& rng) {
    crossbar::CrossbarConfig cfg;
    cfg.rows = cfg.cols = 16;
    cfg.tech = cells[cell].tech;
    cfg.levels = cells[cell].levels;
    cfg.model_ir_drop = false;
    cfg.verified_writes = true;
    cfg.seed = rng();
    crossbar::Crossbar xbar(cfg);
    util::Matrix lv(16, 16);
    const int levels = xbar.scheme().levels();
    for (auto& v : lv.flat())
      v = static_cast<double>(
          rng.uniform_int(static_cast<std::uint64_t>(levels)));
    xbar.program_levels(lv);
    std::vector<double> v(16, xbar.tech().v_read);
    const auto meas = xbar.vmm(v);
    const auto ideal = xbar.ideal_vmm(v);
    obs::StreamStat err;
    for (std::size_t c = 0; c < meas.size(); ++c)
      if (std::abs(ideal[c]) > 1.0)
        err.add(std::abs(meas[c] - ideal[c]) / std::abs(ideal[c]));
    return err.count() > 0 ? err.mean : 0.0;
  };

  // (1) adaptive run.
  bench::WallTimer adaptive_timer;
  const auto adaptive = exp::run_campaign(ccfg, trial);
  const double adaptive_ms = adaptive_timer.elapsed_ms();

  std::uint64_t worst_n = 0;
  for (const auto& c : adaptive.cells) worst_n = std::max(worst_n, c.stat.n);

  // (2) fixed-count baseline sized for the hardest cell.
  exp::CampaignConfig fcfg = ccfg;
  fcfg.adaptive = false;
  fcfg.fixed_trials = worst_n;
  fcfg.checkpoint_path.clear();    // same fingerprint as the adaptive run:
  fcfg.convergence_csv.clear();    // never resume/overwrite its artifacts
  bench::WallTimer fixed_timer;
  const auto fixed = exp::run_campaign(fcfg, trial);
  const double fixed_ms = fixed_timer.elapsed_ms();

  // (3) verdicts.
  const double z = obs::z_for_confidence(ccfg.ci_confidence);
  util::Table t({"cell", "mean err", "adaptive n", "adaptive ci", "fixed n",
                 "fixed ci", "state"});
  t.set_title("Adaptive vs fixed-count Monte-Carlo (target: ci95 half <= "
              "4e-4 absolute)");
  bool all_converged = true;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const obs::StreamStat& sa = adaptive.cells[c].stat;
    const obs::StreamStat& sf = fixed.cells[c].stat;
    const bool ok = adaptive.cells[c].frozen && !adaptive.cells[c].capped &&
                    sa.ci_half_width(z) <= ccfg.ci_target + 1e-12 &&
                    sf.ci_half_width(z) <= ccfg.ci_target + 1e-12;
    all_converged = all_converged && ok;
    t.add_row({adaptive.cells[c].name, util::Table::num(sa.mean, 4),
               std::to_string(sa.n),
               util::Table::num(sa.ci_half_width(z), 5), std::to_string(sf.n),
               util::Table::num(sf.ci_half_width(z), 5),
               ok ? "ok" : "MISSED"});
  }
  t.print(std::cout);

  const double saved_frac =
      1.0 - static_cast<double>(adaptive.total_trials) /
                static_cast<double>(fixed.total_trials);
  std::cout << "adaptive: " << adaptive.total_trials << " trials in "
            << adaptive.rounds << " rounds; fixed(" << worst_n
            << "/cell): " << fixed.total_trials << " trials; saved "
            << util::Table::num(100.0 * saved_frac, 1) << "%\n";

  bool gate_ok = true;
  if (!all_converged) {
    std::cout << "GATE FAILED: a cell missed the CI target\n";
    gate_ok = false;
  }
  if (saved_frac < 0.30) {
    std::cout << "GATE FAILED: adaptive stopping saved "
              << util::Table::num(100.0 * saved_frac, 1)
              << "% trials, need >= 30%\n";
    gate_ok = false;
  }
  if (gate_ok)
    std::cout << "shape check: adaptive stopping met every CI target with "
              << util::Table::num(100.0 * saved_frac, 1)
              << "% fewer trials than the uniform design.\n";

  bench::report(
      "bench_campaign", total.elapsed_ms(),
      static_cast<double>(adaptive.total_trials + fixed.total_trials),
      {{"adaptive_trials", static_cast<double>(adaptive.total_trials)},
       {"fixed_trials", static_cast<double>(fixed.total_trials)},
       {"saved_frac", saved_frac},
       {"adaptive_wall_ms", adaptive_ms},
       {"fixed_wall_ms", fixed_ms}});
  return gate_ok ? 0 : 1;
}
