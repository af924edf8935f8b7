/// \file bench_eda_verify.cpp
/// \brief `cim-lint` over the whole bench suite — runs the static micro-op
///        program verifier (eda/verify) across every benchmark circuit, all
///        three logic families (IMPLY, Majority/ReVAMP, MAGIC) and both
///        allocator modes (naive vs. CONTRA-style cell reuse), reporting
///        `verify::check_program`'s per-program diagnostic counts, worst
///        per-cell write bound and a clean/NO verdict per row.
///
/// Contrast with bench_fig8_eda_flow: that run proves functional correctness
/// by exhaustive simulation (2^inputs evaluations); this one proves
/// hazard-freedom with a single linear pass per program, so it covers every
/// circuit regardless of input count.
#include <cstdio>
#include <iostream>
#include <utility>

#include "bench_common.hpp"
#include "device/technology.hpp"
#include "eda/aig.hpp"
#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/access.hpp"
#include "eda/verify/verify.hpp"
#include "eda/verify/wear_cost.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  const auto suite = eda::standard_suite();

  // --- cim-lint across suite x family x allocator mode ------------------------
  std::size_t total_errors = 0;
  std::size_t total_warnings = 0;
  std::size_t programs = 0;
  for (const bool reuse : {false, true}) {
    std::vector<eda::verify::LintEntry> entries;
    for (const auto& bc : suite) {
      const eda::Aig aig = eda::Aig::from_netlist(bc.netlist);
      {
        const auto prog = eda::compile_imply(aig, reuse);
        entries.push_back({bc.name, "IMPLY",
                           eda::verify::check_program(prog, &aig).report});
      }
      {
        const eda::Mig mig = eda::Mig::from_aig(aig);
        const auto prog =
            eda::assemble_revamp(mig, eda::schedule_revamp(mig));
        entries.push_back({bc.name, "Majority",
                           eda::verify::check_program(prog, &mig).report});
      }
      {
        const auto nor = aig.to_netlist().to_nor_only();
        const auto prog = eda::compile_magic(nor, reuse);
        entries.push_back({bc.name, "MAGIC",
                           eda::verify::check_program(prog, &nor).report});
      }
    }
    auto t = eda::verify::lint_table(entries);
    t.set_title(std::string("cim-lint — ") +
                (reuse ? "area-constrained (cell reuse)" : "naive allocation"));
    t.print(std::cout);
    for (const auto& e : entries) {
      total_errors += e.report.errors();
      total_warnings += e.report.warnings();
      ++programs;
    }
  }

  // --- geometry pressure: footprint vs. a fixed 64x64 crossbar ----------------
  {
    util::Table t({"circuit", "family", "cells", "fits 64x64", "max W/cell"});
    t.set_title("Footprint check against a 64x64 crossbar tile");
    eda::verify::CheckOptions opts;
    opts.verify.geometry = crossbar::Geometry{64, 64};
    for (const auto& bc : suite) {
      const eda::Aig aig = eda::Aig::from_netlist(bc.netlist);
      const auto iprog = eda::compile_imply(aig, true);
      const auto irep = eda::verify::check_program(iprog, &aig, opts).report;
      t.add_row({bc.name, "IMPLY", std::to_string(iprog.num_cells),
                 irep.count(eda::verify::Rule::kOobCell) == 0 ? "yes" : "NO",
                 std::to_string(irep.max_writes_per_cell)});
      const auto nor = aig.to_netlist().to_nor_only();
      const auto mprog = eda::compile_magic(nor, true);
      const auto mrep = eda::verify::check_program(mprog, &nor, opts).report;
      t.add_row({bc.name, "MAGIC", std::to_string(mprog.num_cells),
                 mrep.count(eda::verify::Rule::kOobCell) == 0 ? "yes" : "NO",
                 std::to_string(mrep.max_writes_per_cell)});
    }
    t.print(std::cout);
  }

  // --- static analysis timings + cross-tile hazard gate ----------------------
  // The three analyses check_program runs, each timed on its own across the
  // whole suite x 3 families: the family linter, the wear certificate
  // (access_of + certify_wear) and the cost certificate (estimate_cost +
  // certify_cost). check_program takes the access sets and the cost from
  // one walk, so timed apart the two certificates walk each program twice.
  // The suite-level run re-checks that the cross-tile hazard analyzer
  // (round-robin tile pool) stays finding-free on mapper output.
  double pass_lint_ms = 0.0;
  double pass_wear_ms = 0.0;
  double pass_cost_ms = 0.0;
  std::size_t runs = 0;
  std::size_t hazard_findings = 0;
  {
    const eda::verify::VerifyOptions opts;
    const auto tech = device::technology_params(opts.tech);
    const auto time_analyses = [&](const auto& prog, auto&& lint) {
      bench::WallTimer timer;
      auto rep = lint();
      pass_lint_ms += timer.elapsed_ms();
      timer.restart();
      eda::verify::certify_wear(eda::verify::access_of(prog), opts, 0, rep);
      pass_wear_ms += timer.elapsed_ms();
      timer.restart();
      eda::verify::certify_cost(eda::verify::estimate_cost(prog, tech), {},
                                rep);
      pass_cost_ms += timer.elapsed_ms();
      ++runs;
    };
    for (const auto& bc : suite) {
      const eda::Aig aig = eda::Aig::from_netlist(bc.netlist);
      const auto iprog = eda::compile_imply(aig, true);
      time_analyses(iprog,
                    [&] { return eda::verify::lint_imply(iprog, &aig); });
      const auto nor = aig.to_netlist().to_nor_only();
      const auto mprog = eda::compile_magic(nor, true);
      time_analyses(mprog,
                    [&] { return eda::verify::lint_magic(mprog, &nor); });
      const eda::Mig mig = eda::Mig::from_aig(aig);
      const auto rprog = eda::assemble_revamp(mig, eda::schedule_revamp(mig));
      time_analyses(rprog, [&] { return eda::verify::lint_revamp(rprog); });
    }
    util::Table t({"pass", "runs", "wall ms"});
    t.set_title("Static analysis timings (suite x 3 families)");
    const std::pair<const char*, double> rows[] = {
        {"family-lint", pass_lint_ms},
        {"wear-certify", pass_wear_ms},
        {"cost-certify", pass_cost_ms}};
    for (const auto& [name, ms] : rows) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", ms);
      t.add_row({name, std::to_string(runs), buf});
    }
    t.print(std::cout);
    const auto reports =
        eda::run_suite(suite, {.reuse_cells = true, .verify = false});
    for (const auto& r : reports) hazard_findings += r.hazard_findings;
    std::cout << "cross-tile hazard gate: "
              << (hazard_findings == 0 ? "clean" : "FINDINGS") << " ("
              << hazard_findings << " finding(s) across " << reports.size()
              << " scheduled programs)\n";
  }

  // --- the flow-integrated view: lint + dynamic verify side by side -----------
  {
    util::Table t({"circuit", "family", "lint", "dynamic verify"});
    t.set_title("Static lint vs. exhaustive simulation (flow integration)");
    for (const auto& bc : suite) {
      if (bc.netlist.num_inputs() > 9) continue;  // keep simulation cheap
      for (const auto family : eda::all_logic_families()) {
        const auto rep = eda::run_flow(bc.name, bc.netlist, family,
                                       {.reuse_cells = true, .verify = true});
        t.add_row({bc.name, std::string(eda::logic_family_name(family)),
                   rep.lint_clean ? "clean" : "DIRTY",
                   rep.verified ? "pass" : "FAIL"});
      }
    }
    t.print(std::cout);
  }

  std::cout << "cim-lint: " << programs << " programs, " << total_errors
            << " errors, " << total_warnings << " warnings\n"
            << "shape check: every compiled program is statically "
               "hazard-free in both allocator modes;\nstatic lint agrees "
               "with exhaustive simulation wherever both run.\n";
  bench::report("bench_eda_verify", total.elapsed_ms(),
                static_cast<double>(programs),
                {{"pass_lint_ms", pass_lint_ms},
                 {"pass_wear_ms", pass_wear_ms},
                 {"pass_cost_ms", pass_cost_ms},
                 {"hazard_findings", static_cast<double>(hazard_findings)}});
  return total_errors == 0 && hazard_findings == 0 ? 0 : 1;
}
