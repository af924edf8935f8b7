/// verify::check_program (eda/verify/wear_cost.hpp): one call per program
/// runs the family linter and both certificates and merges their
/// diagnostics in that order, matches the source only when asked (and only
/// with one), the flow must surface the certificates in its report, and
/// the verdict must match the stand-alone linters.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/netlist.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/access.hpp"
#include "eda/verify/verify.hpp"
#include "eda/verify/wear_cost.hpp"

namespace cim::eda::verify {
namespace {

/// Gates no program can meet: PCM endurance (1e9) against 2^62 planned
/// runs, and 1 ns / 1 pJ per execution.
CheckOptions impossible_gates() {
  CheckOptions opts;
  opts.verify.tech = device::Technology::kPcm;
  opts.planned_evaluations = UINT64_C(1) << 62;
  opts.cost_budget = {1.0, 1.0};
  return opts;
}

TEST(CheckProgram, CleanProgramPassesEveryCheck) {
  const auto aig = Aig::from_netlist(ripple_carry_adder(2));
  const auto prog = compile_imply(aig, true);
  const auto chk = check_program(prog, &aig);
  EXPECT_TRUE(chk.report.clean());
  EXPECT_EQ(chk.report.errors(), 0u);
  EXPECT_GT(chk.report.cells_tracked, 0u);
  EXPECT_GT(chk.report.max_writes_per_cell, 0u);
  EXPECT_GT(chk.wear.certified_evaluations, 0u);
  EXPECT_EQ(chk.wear.max_writes_per_run, chk.access.max_write_bound());
  EXPECT_GT(chk.cost.time_ns, 0.0);
}

TEST(CheckProgram, VerdictMatchesTheStandaloneLinters) {
  // Clean programs gain no diagnostics from the certificates (no gate set),
  // so the check must agree with the direct linter in every family, and its
  // write count is the access sets' bound.
  const auto agree = [](const VerifyReport& checked,
                        const VerifyReport& direct, std::size_t write_bound,
                        const std::string& what) {
    EXPECT_EQ(checked.errors(), direct.errors()) << what;
    EXPECT_EQ(checked.warnings(), direct.warnings()) << what;
    EXPECT_EQ(checked.max_writes_per_cell, write_bound) << what;
  };
  for (const auto& bc : standard_suite()) {
    const auto aig = Aig::from_netlist(bc.netlist);
    const auto iprog = compile_imply(aig, true);
    agree(check_program(iprog, &aig).report, lint_imply(iprog, &aig),
          access_of(iprog).max_write_bound(), bc.name + "/IMPLY");
    const auto nor = aig.to_netlist().to_nor_only();
    const auto mprog = compile_magic(nor, true);
    agree(check_program(mprog, &nor).report, lint_magic(mprog, &nor),
          access_of(mprog).max_write_bound(), bc.name + "/MAGIC");
    const auto mig = Mig::from_aig(aig);
    const auto rprog = assemble_revamp(mig, schedule_revamp(mig));
    agree(check_program(rprog, &mig).report, lint_revamp(rprog),
          access_of(rprog).max_write_bound(), bc.name + "/ReVAMP");
  }
}

// The merged report holds the linter's diagnostics (here from one planted
// out-of-footprint micro-op), then the wear, then the cost-budget ones.
TEST(CheckProgram, WearAndCostGatesFeedTheMergedReport) {
  const auto aig = Aig::from_netlist(ripple_carry_adder(2));
  auto prog = compile_imply(aig, true);
  prog.instrs.push_back(
      {ImplyInstr::Kind::kImply, prog.num_cells, prog.num_cells});
  const auto opts = impossible_gates();
  const auto rep = check_program(prog, &aig, opts).report;
  const auto lint = lint_imply(prog, &aig, opts.verify);
  EXPECT_FALSE(rep.clean());
  const std::size_t n_lint = lint.diagnostics.size();
  const std::size_t n_wear = rep.count(Rule::kWearBudget);
  ASSERT_GT(n_lint, 0u);
  ASSERT_GE(n_wear, 1u);
  EXPECT_EQ(rep.count(Rule::kCostBudget), 2u);
  ASSERT_EQ(rep.diagnostics.size(), n_lint + n_wear + 2);
  for (std::size_t k = 0; k < rep.diagnostics.size(); ++k) {
    const auto& d = rep.diagnostics[k];
    if (k < n_lint)
      EXPECT_EQ(d.to_string(), lint.diagnostics[k].to_string()) << k;
    else if (k < n_lint + n_wear)
      EXPECT_EQ(d.rule, Rule::kWearBudget) << k;
    else
      EXPECT_EQ(d.rule, Rule::kCostBudget) << k;
  }
}

TEST(CheckProgram, EveryFamilyIsChecked) {
  const auto nl = ripple_carry_adder(2);
  const auto aig = Aig::from_netlist(nl);
  const auto iprog = compile_imply(aig, true);
  EXPECT_TRUE(check_program(iprog, &aig).report.clean());
  const auto nor = aig.to_netlist().to_nor_only();
  const auto mprog = compile_magic(nor, true);
  EXPECT_TRUE(check_program(mprog, &nor).report.clean());
  const auto mig = Mig::from_aig(aig);
  const auto rprog = assemble_revamp(mig, schedule_revamp(mig));
  const auto rchk = check_program(rprog, &mig);
  EXPECT_TRUE(rchk.report.clean());
  EXPECT_EQ(rchk.access.rows, rprog.wordlines);
}

// Matching the source is asked for, and needs the source; the verdict is
// false unless asked.
TEST(CheckProgram, MatchSourceNeedsTheSource) {
  const auto aig = Aig::from_netlist(ripple_carry_adder(2));
  const auto nor = aig.to_netlist().to_nor_only();
  const auto mig = Mig::from_aig(aig);
  const auto iprog = compile_imply(aig, true);
  const auto mprog = compile_magic(nor, true);
  const auto rprog = assemble_revamp(mig, schedule_revamp(mig));
  EXPECT_FALSE(check_program(iprog, &aig).verified);
  EXPECT_FALSE(check_program(mprog, &nor).verified);
  EXPECT_FALSE(check_program(rprog, &mig).verified);
  CheckOptions opts;
  opts.match_source = true;
  EXPECT_TRUE(check_program(iprog, &aig, opts).verified);
  EXPECT_TRUE(check_program(mprog, &nor, opts).verified);
  EXPECT_TRUE(check_program(rprog, &mig, opts).verified);
  EXPECT_THROW((void)check_program(iprog, nullptr, opts),
               std::invalid_argument);
  EXPECT_THROW((void)check_program(mprog, nullptr, opts),
               std::invalid_argument);
  EXPECT_THROW((void)check_program(rprog, nullptr, opts),
               std::invalid_argument);
}

// --- flow integration --------------------------------------------------------

TEST(FlowStatic, ReportCarriesTheCertificates) {
  const auto nl = ripple_carry_adder(2);
  const auto rep = run_flow("rca2", nl, LogicFamily::kImply,
                            {.reuse_cells = true, .verify = false});
  EXPECT_TRUE(rep.lint_clean);
  EXPECT_GT(rep.static_max_writes_per_cell, 0u);
  EXPECT_GE(rep.static_max_writes_per_cell, rep.max_writes_per_cell);
  EXPECT_GT(rep.certified_evaluations, 0u);
  EXPECT_GT(rep.static_time_ns, 0.0);
  EXPECT_LE(rep.static_energy_pj_min, rep.static_energy_pj_exp);
  EXPECT_LE(rep.static_energy_pj_exp, rep.static_energy_pj_max);
  EXPECT_TRUE(rep.static_cost_exact);
}

TEST(FlowStatic, SuiteHazardGateIsCleanAndCountsAttribute) {
  const auto reports =
      run_suite(standard_suite(), {.reuse_cells = true, .verify = false});
  for (const auto& r : reports) {
    EXPECT_TRUE(r.hazard_clean) << r.circuit;
    EXPECT_EQ(r.hazard_findings, 0u) << r.circuit;
    EXPECT_TRUE(r.lint_clean) << r.circuit;
  }
}

}  // namespace
}  // namespace cim::eda::verify
