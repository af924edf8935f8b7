/// Golden regression of the Fig. 8 flow: every FlowReport field of
/// run_suite(standard_suite()) with the default options (exhaustive
/// verification and the lint pipeline on for all 45 flows), doubles at
/// %.17g, plus each diagnostic's severity, rule, position and message. Any
/// change to synthesis, mapping, verification or the static passes must
/// keep every line byte-identical.
///
/// tests/data/eda_flow.golden was written once by the disabled case below,
/// and is never rewritten by the test suite:
///
///   build/tests/test_verify --gtest_also_run_disabled_tests
///       --gtest_filter=FlowGolden.DISABLED_DumpGolden
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eda/bench_circuits.hpp"
#include "eda/flow.hpp"

namespace cim::eda {
namespace {

const char* const kGoldenPath = CIM_TEST_DATA_DIR "/eda_flow.golden";

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string flag(bool b) { return b ? "1" : "0"; }

/// One line per report, then one indented line per diagnostic.
std::vector<std::string> run_golden_suite() {
  std::vector<std::string> lines;
  for (const FlowReport& r : run_suite(standard_suite())) {
    lines.push_back(
        r.circuit + " " + std::string(logic_family_name(r.family)) +
        " aig_nodes=" + std::to_string(r.aig_nodes) +
        " aig_depth=" + std::to_string(r.aig_depth) +
        " mig_nodes=" + std::to_string(r.mig_nodes) +
        " mig_depth=" + std::to_string(r.mig_depth) +
        " esop_cubes=" + std::to_string(r.esop_cubes) +
        " bdd_nodes=" + std::to_string(r.bdd_nodes) +
        " devices=" + std::to_string(r.devices) +
        " delay=" + std::to_string(r.delay) +
        " adp=" + num(r.area_delay_product) +
        " verified=" + flag(r.verified) +
        " lint_clean=" + flag(r.lint_clean) +
        " lint_errors=" + std::to_string(r.lint_errors) +
        " lint_warnings=" + std::to_string(r.lint_warnings) +
        " max_writes_per_cell=" + std::to_string(r.max_writes_per_cell) +
        " diagnostics=" + std::to_string(r.lint_diagnostics.size()) +
        " static_max_writes_per_cell=" +
        std::to_string(r.static_max_writes_per_cell) +
        " certified_evaluations=" + std::to_string(r.certified_evaluations) +
        " static_time_ns=" + num(r.static_time_ns) +
        " static_energy_pj_min=" + num(r.static_energy_pj_min) +
        " static_energy_pj_exp=" + num(r.static_energy_pj_exp) +
        " static_energy_pj_max=" + num(r.static_energy_pj_max) +
        " static_cost_exact=" + flag(r.static_cost_exact) +
        " hazard_clean=" + flag(r.hazard_clean) +
        " hazard_findings=" + std::to_string(r.hazard_findings));
    for (const auto& d : r.lint_diagnostics)
      lines.push_back("  " + std::string(verify::severity_name(d.severity)) +
                      " " + std::string(verify::rule_id(d.rule)) +
                      " instr=" + std::to_string(d.instr) +
                      " cell=" + std::to_string(d.cell) + " " + d.message);
  }
  return lines;
}

TEST(FlowGolden, DISABLED_DumpGolden) {
  const auto lines = run_golden_suite();
  std::ofstream out(kGoldenPath);
  ASSERT_TRUE(out) << kGoldenPath;
  out << "# cim eda flow golden: run_suite(standard_suite()), default "
         "options, every FlowReport field (%.17g)\n";
  for (const auto& line : lines) out << line << "\n";
}

TEST(FlowGolden, MatchesCheckedInGolden) {
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing " << kGoldenPath;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') want.push_back(line);

  const auto got = run_golden_suite();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "line " << i;
}

}  // namespace
}  // namespace cim::eda
