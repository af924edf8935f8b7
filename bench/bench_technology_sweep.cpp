/// \file bench_technology_sweep.cpp
/// \brief Section II.B: "The memory array for CIM architecture can be
///        implemented using different non-volatile memory technologies such
///        as PCM, ReRAM and MRAM as well as conventional SRAM and DRAM ...
///        the basic concept of CIM and its core functional units are
///        similar and independent of the adopted memory technology."
///        Sweeps every technology preset through the same VMM workload and
///        reports how the device parameters shape accuracy, cost and
///        reliability.
///
/// The per-technology VMM-error statistics run as an adaptive Monte-Carlo
/// campaign (exp::run_campaign): each cell is one technology, each trial
/// builds a fresh 32x32 array from a (seed, cell, rep) counter-split RNG
/// and measures one VMM's mean relative error, and trials stop per cell
/// once the 95% CI half-width falls under 5% of the mean. Results are
/// bit-identical for any CIM_THREADS / CIM_EXP_WORKERS.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "exp/campaign.hpp"
#include "memtest/march.hpp"
#include "obs/dataset.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  const auto techs = device::all_technologies();

  // --- device parameter card --------------------------------------------------
  {
    util::Table t({"technology", "Ron/Roff (kOhm)", "levels", "cell (F^2)",
                   "write (ns/pJ)", "read (ns/pJ)", "endurance",
                   "non-volatile"});
    t.set_title("Section II.B — technology presets");
    for (const auto tech : techs) {
      const auto p = device::technology_params(tech);
      t.add_row({std::string(device::technology_name(tech)),
                 util::Table::num(p.r_on_kohm, 1) + "/" +
                     util::Table::num(p.r_off_kohm, 0),
                 std::to_string(p.max_levels),
                 util::Table::num(p.cell_area_f2, 0),
                 util::Table::num(p.t_write_ns, 1) + "/" +
                     util::Table::num(p.e_write_pj, 2),
                 util::Table::num(p.t_read_ns, 1) + "/" +
                     util::Table::num(p.e_read_pj, 3),
                 util::Table::num(p.endurance_mean, 0),
                 p.nonvolatile ? "yes" : "no"});
    }
    t.print(std::cout);
  }

  // --- fixed-seed cost/reliability pass (one array per technology) ------------
  struct FixedRow {
    int levels = 0;
    double vmm_energy = 0.0;
    double coverage = 0.0;
    double march_us = 0.0;
  };
  std::vector<FixedRow> fixed(techs.size());
  for (std::size_t ti = 0; ti < techs.size(); ++ti) {
    crossbar::CrossbarConfig cfg;
    cfg.rows = cfg.cols = 32;
    cfg.tech = techs[ti];
    cfg.levels = 16;  // clamped to the technology's capability
    cfg.model_ir_drop = false;
    cfg.verified_writes = true;
    cfg.seed = 31;
    crossbar::Crossbar xbar(cfg);

    util::Rng rng(7);
    util::Matrix lv(32, 32);
    const int levels = xbar.scheme().levels();
    for (auto& v : lv.flat())
      v = static_cast<double>(
          rng.uniform_int(static_cast<std::uint64_t>(levels)));
    xbar.program_levels(lv);
    std::vector<double> v(32, xbar.tech().v_read);
    xbar.reset_stats();
    for (int rep = 0; rep < 16; ++rep) (void)xbar.vmm(v);

    crossbar::CrossbarConfig mcfg = cfg;
    mcfg.levels = 2;
    mcfg.seed = 41;
    crossbar::Crossbar marr(mcfg);
    util::Rng frng(9);
    const auto map = fault::FaultMap::with_fault_count(
        32, 32, 16, fault::FaultMix::stuck_at_only(), frng);
    marr.apply_faults(map);
    const auto march = memtest::run_march(marr, memtest::march_cstar());

    fixed[ti] = {levels, xbar.stats().energy_pj / 16.0,
                 memtest::fault_coverage(map, march), march.time_ns / 1e3};
  }

  // --- adaptive VMM-error campaign over every substrate ------------------------
  exp::CampaignConfig ccfg;
  ccfg.name = "technology_sweep";
  ccfg.seed = 31;
  ccfg.cells = techs.size();
  for (const auto tech : techs)
    ccfg.cell_names.emplace_back(device::technology_name(tech));
  ccfg.block = 4;
  ccfg.min_trials = 8;
  ccfg.max_trials = 64;
  ccfg.ci_confidence = 0.95;
  ccfg.ci_rel_target = 0.05;
  ccfg.pool = &util::ThreadPool::global();
  ccfg = exp::apply_env(ccfg);

  const exp::TrialFn trial = [&](std::size_t cell, std::uint64_t /*rep*/,
                                 util::Rng& rng) {
    crossbar::CrossbarConfig cfg;
    cfg.rows = cfg.cols = 32;
    cfg.tech = techs[cell];
    cfg.levels = 16;
    cfg.model_ir_drop = false;
    cfg.verified_writes = true;
    cfg.seed = rng();
    crossbar::Crossbar xbar(cfg);
    util::Matrix lv(32, 32);
    const int levels = xbar.scheme().levels();
    for (auto& v : lv.flat())
      v = static_cast<double>(
          rng.uniform_int(static_cast<std::uint64_t>(levels)));
    xbar.program_levels(lv);
    std::vector<double> v(32, xbar.tech().v_read);
    const auto meas = xbar.vmm(v);
    const auto ideal = xbar.ideal_vmm(v);
    obs::StreamStat err;
    for (std::size_t c = 0; c < meas.size(); ++c)
      if (std::abs(ideal[c]) > 1.0)
        err.add(std::abs(meas[c] - ideal[c]) / std::abs(ideal[c]));
    return err.count() > 0 ? err.mean : 0.0;
  };
  const auto res = exp::run_campaign(ccfg, trial);

  {
    util::Table t({"technology", "usable levels", "VMM rel err (mean)",
                   "ci95 half", "trials", "VMM energy (pJ)",
                   "March C* coverage", "March C* time (us)"});
    t.set_title("Same CIM workload, every substrate (32x32 array, adaptive "
                "Monte-Carlo)");
    const double zz = obs::z_for_confidence(ccfg.ci_confidence);
    for (std::size_t ti = 0; ti < techs.size(); ++ti) {
      const auto& cell = res.cells[ti];
      t.add_row({cell.name, std::to_string(fixed[ti].levels),
                 util::Table::num(cell.stat.mean, 4),
                 util::Table::num(cell.stat.ci_half_width(zz), 4),
                 std::to_string(cell.stat.n),
                 util::Table::num(fixed[ti].vmm_energy, 2),
                 util::Table::num(fixed[ti].coverage, 3),
                 util::Table::num(fixed[ti].march_us, 1)});
    }
    t.print(std::cout);
  }
  std::cout << "shape check: the same functional units run on every "
               "substrate; binary technologies (MRAM/SRAM/DRAM) lose the "
               "multi-level density, PCM pays write cost, ReRAM balances "
               "levels vs variation — the Section II.B trade-off space. "
               "High-variance substrates drew more trials ("
            << res.total_trials << " total over " << res.rounds
            << " rounds).\n";
  bench::report("bench_technology_sweep", total.elapsed_ms(),
                static_cast<double>(res.total_trials),
                {{"campaign_rounds", static_cast<double>(res.rounds)},
                 {"campaign_shards", static_cast<double>(res.worker_shards)}});
  return 0;
}
