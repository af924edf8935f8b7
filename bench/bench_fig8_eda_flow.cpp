/// \file bench_fig8_eda_flow.cpp
/// \brief Regenerates **Fig. 8 / Section IV** — the EDA flow from logic
///        synthesis through technology mapping for the three ReRAM logic
///        families (IMPLY, Majority/ReVAMP, MAGIC), reporting device count,
///        delay and area-delay product per benchmark, plus the
///        area-constrained (cell-reuse) ablation of the CONTRA-style flow
///        and the static-vs-measured cost cross-validation gate (the
///        wear/cost certifier's energy expectation must land within 15% of
///        the charge the executors actually push through the crossbar).
///        Exits 1 when a verified mapping reads NO! (each such row is named)
///        or the cost gate fails.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simd_magic.hpp"
#include "crossbar/crossbar.hpp"
#include "device/technology.hpp"
#include "eda/aig.hpp"
#include "eda/esop_mapper.hpp"
#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/wear_cost.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  const auto suite = eda::standard_suite();
  std::vector<std::string> unverified;  // rows whose `verified` reads NO!

  // --- synthesis statistics ---------------------------------------------------
  {
    util::Table t({"circuit", "PI", "PO", "AIG nodes", "AIG depth",
                   "MIG nodes", "MIG depth", "ESOP cubes", "BDD nodes"});
    t.set_title("Fig. 8 phase 1/2 — synthesis statistics");
    for (const auto& bc : suite) {
      const auto rep =
          eda::run_flow(bc.name, bc.netlist, eda::LogicFamily::kMagic,
                        {.reuse_cells = true, .verify = false});
      t.add_row({bc.name, std::to_string(bc.netlist.num_inputs()),
                 std::to_string(bc.netlist.num_outputs()),
                 std::to_string(rep.aig_nodes), std::to_string(rep.aig_depth),
                 std::to_string(rep.mig_nodes), std::to_string(rep.mig_depth),
                 rep.esop_cubes ? std::to_string(rep.esop_cubes) : "-",
                 rep.bdd_nodes ? std::to_string(rep.bdd_nodes) : "-"});
    }
    t.print(std::cout);
  }

  // --- technology mapping across the three families ---------------------------
  {
    util::Table t({"circuit", "family", "devices", "delay", "ADP", "verified"});
    t.set_title("Fig. 8 phase 3 — technology mapping (area-constrained)");
    for (const auto& bc : suite) {
      const bool verify = bc.netlist.num_inputs() <= 9;
      for (const auto family : eda::all_logic_families()) {
        const auto rep = eda::run_flow(bc.name, bc.netlist, family,
                                       {.reuse_cells = true, .verify = verify});
        const std::string name(eda::logic_family_name(family));
        if (verify && !rep.verified)
          unverified.push_back("phase 3 " + bc.name + " " + name);
        t.add_row({bc.name, name, std::to_string(rep.devices),
                   std::to_string(rep.delay),
                   util::Table::num(rep.area_delay_product, 0),
                   verify ? (rep.verified ? "yes" : "NO!") : "skipped"});
      }
    }
    t.print(std::cout);
  }

  // --- ESOP-based crossbar mapping [69] (single-output circuits) --------------
  {
    util::Table t({"circuit", "cubes", "layout", "devices", "delay", "verified"});
    t.set_title("ESOP crossbar mapping [69] — row-per-cube vs 3x2-style "
                "time-multiplexed");
    for (const auto& bc : suite) {
      if (bc.netlist.num_outputs() != 1 || bc.netlist.num_inputs() > 8)
        continue;
      const auto esop =
          eda::Esop::from_truth_table(bc.netlist.truth_tables().front());
      for (const auto layout :
           {eda::EsopLayout::kRowPerCube, eda::EsopLayout::kTimeMultiplexed}) {
        const auto prog = eda::compile_esop(esop, layout);
        const std::string name =
            layout == eda::EsopLayout::kRowPerCube ? "row/cube" : "time-mux";
        const bool ok = eda::verify_esop(prog);
        if (!ok) unverified.push_back("ESOP " + bc.name + " " + name);
        t.add_row({bc.name, std::to_string(esop.cube_count()), name,
                   std::to_string(prog.device_count),
                   std::to_string(prog.delay), ok ? "yes" : "NO!"});
      }
    }
    t.print(std::cout);
  }

  // --- ablation: area-constrained cell reuse (CONTRA-style) vs naive ----------
  {
    util::Table t({"circuit", "family", "devices (naive)", "devices (reuse)",
                   "area saved", "ADP gain"});
    t.set_title("Ablation — area-constrained mapping [73] vs naive allocation");
    for (const auto& bc : suite) {
      for (const auto family :
           {eda::LogicFamily::kImply, eda::LogicFamily::kMagic}) {
        const auto naive = eda::run_flow(bc.name, bc.netlist, family,
                                         {.reuse_cells = false, .verify = false});
        const auto reuse = eda::run_flow(bc.name, bc.netlist, family,
                                         {.reuse_cells = true, .verify = false});
        t.add_row(
            {bc.name, std::string(eda::logic_family_name(family)),
             std::to_string(naive.devices), std::to_string(reuse.devices),
             util::Table::num(
                 100.0 * (1.0 - double(reuse.devices) / double(naive.devices)),
                 1) + "%",
             util::Table::num(naive.area_delay_product /
                                  std::max(1.0, reuse.area_delay_product),
                              2) + "x"});
      }
    }
    t.print(std::cout);
  }
  // --- static-vs-measured cost cross-validation (15% gate) --------------------
  // The static certifier predicts latency exactly (schedules are data-blind)
  // and brackets energy; its probabilistic expectation must land within 15%
  // of the mean charge measured by executing every input assignment on a
  // real crossbar at the same technology point (STT-MRAM, binary, no IR
  // drop — the configuration of the device-execution test).
  double max_energy_err_pct = 0.0;
  double max_time_err_pct = 0.0;
  {
    util::Table t({"circuit", "family", "static ns", "meas ns",
                   "static pJ (exp)", "meas pJ", "energy err"});
    t.set_title("Static cost certifier vs executed crossbar charge "
                "(gate: 15%)");
    const auto tech =
        device::technology_params(device::Technology::kSttMram);
    const auto cross_check = [&](const std::string& circuit,
                                 const char* family, std::size_t rows,
                                 std::size_t cols, std::size_t num_inputs,
                                 const eda::verify::CostEstimate& est,
                                 auto&& exec) {
      const std::uint64_t n = 1ULL << num_inputs;
      double sum_e = 0.0;
      double time_ns = 0.0;
      for (std::uint64_t a = 0; a < n; ++a) {
        crossbar::CrossbarConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        cfg.tech = device::Technology::kSttMram;
        cfg.levels = 2;
        cfg.model_ir_drop = false;
        cfg.seed = 1000 + a;
        crossbar::Crossbar xbar(cfg);
        exec(xbar, a);
        sum_e += xbar.stats().energy_pj;
        time_ns = xbar.stats().time_ns;
      }
      const double mean_e = sum_e / static_cast<double>(n);
      const double e_err =
          100.0 * std::abs(mean_e - est.energy_pj_exp) / est.energy_pj_exp;
      const double t_err =
          100.0 * std::abs(time_ns - est.time_ns) / est.time_ns;
      max_energy_err_pct = std::max(max_energy_err_pct, e_err);
      max_time_err_pct = std::max(max_time_err_pct, t_err);
      t.add_row({circuit, family, util::Table::num(est.time_ns, 1),
                 util::Table::num(time_ns, 1),
                 util::Table::num(est.energy_pj_exp, 2),
                 util::Table::num(mean_e, 2),
                 util::Table::num(e_err, 1) + "%"});
    };
    for (const auto& bc : suite) {
      if (bc.netlist.num_inputs() > 9) continue;  // exhaustive runs only
      const auto aig = eda::Aig::from_netlist(bc.netlist);
      {
        const auto prog = eda::compile_imply(aig, true);
        const auto est = eda::verify::estimate_cost(prog, tech);
        cross_check(bc.name, "IMPLY", 1, prog.num_cells, prog.num_inputs,
                    est, [&](crossbar::Crossbar& x, std::uint64_t a) {
                      eda::execute_imply(x, prog, a);
                    });
      }
      {
        const auto nor = aig.to_netlist().to_nor_only();
        const auto prog = eda::compile_magic(nor, true);
        const auto est = eda::verify::estimate_cost(prog, tech);
        cross_check(bc.name, "MAGIC", 1, prog.num_cells, prog.num_inputs,
                    est, [&](crossbar::Crossbar& x, std::uint64_t a) {
                      eda::execute_magic(x, prog, a);
                    });
      }
      {
        const auto mig = eda::Mig::from_aig(aig);
        const auto prog =
            eda::assemble_revamp(mig, eda::schedule_revamp(mig));
        const auto est = eda::verify::estimate_cost(prog, tech);
        cross_check(bc.name, "Majority", prog.wordlines, prog.bitlines,
                    prog.num_inputs, est,
                    [&](crossbar::Crossbar& x, std::uint64_t a) {
                      eda::execute_revamp_program(x, prog, a);
                    });
      }
    }
    t.print(std::cout);
  }
  const bool cost_gate_pass =
      max_energy_err_pct <= 15.0 && max_time_err_pct <= 15.0;
  std::cout << "static-vs-measured gate: max energy err "
            << util::Table::num(max_energy_err_pct, 2) << "%, max time err "
            << util::Table::num(max_time_err_pct, 2) << "% -> "
            << (cost_gate_pass ? "PASS (<= 15%)" : "FAIL (> 15%)") << "\n";

  // --- SIMD throughput of single-row MAGIC programs [70] ----------------------
  {
    util::Table t({"lanes", "latency (ns)", "throughput (evals/us)",
                   "energy/eval (pJ)"});
    t.set_title("SIMD MAGIC [70] — rca4 executed across crossbar rows in "
                "lockstep");
    const auto prog = eda::compile_magic(
        eda::Aig::from_netlist(eda::ripple_carry_adder(4)).to_netlist()
            .to_nor_only(), true);
    util::Rng rng(5);
    for (const std::size_t lanes : {1u, 8u, 32u, 128u}) {
      core::SimdMagicUnit unit(prog, lanes);
      std::vector<std::uint64_t> batch(lanes);
      for (auto& a : batch) a = rng.uniform_int(1 << 9);
      (void)unit.execute_batch(batch);
      const auto& s = unit.last_batch();
      t.add_row({std::to_string(lanes), util::Table::num(s.latency_ns, 0),
                 util::Table::num(s.throughput_per_us, 1),
                 util::Table::num(s.energy_pj / double(lanes), 1)});
    }
    t.print(std::cout);
  }

  for (const std::string& row : unverified)
    std::cout << "verification FAILED: " << row << "\n";
  std::cout << "shape check: ";
  if (unverified.empty())
    std::cout << "every verified mapping is functionally correct";
  else
    std::cout << unverified.size() << " verified mapping(s) read NO!";
  std::cout << ";\nMajority delay tracks MIG depth (lower bound levels+1 [67]);"
               "\ncell reuse buys double-digit area savings at equal delay.\n";
  bench::report("bench_fig8_eda_flow", total.elapsed_ms(),
                static_cast<double>(suite.size()),
                {{"static_energy_err_pct", max_energy_err_pct},
                 {"static_time_err_pct", max_time_err_pct},
                 {"gate_pass", cost_gate_pass ? 1.0 : 0.0}});
  return cost_gate_pass && unverified.empty() ? 0 : 1;
}
