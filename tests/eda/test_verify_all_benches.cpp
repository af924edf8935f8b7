/// \file test_verify_all_benches.cpp
/// \brief The lint gate: every benchmark circuit must compile to a
///        statically hazard-free program in all three logic families and
///        both allocator modes — zero diagnostics, not merely zero errors.
///        Registered under the `lint` ctest label so `ctest -L lint` runs
///        the static checks standalone.
#include <gtest/gtest.h>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/verify.hpp"

namespace cim::eda {
namespace {

std::string dump(const verify::VerifyReport& rep) {
  std::string s;
  for (const auto& d : rep.diagnostics) s += d.to_string() + "\n";
  return s;
}

class LintGate
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
 protected:
  const BenchmarkCircuit& circuit() const {
    static const auto suite = standard_suite();
    return suite[std::get<0>(GetParam())];
  }
  bool reuse() const { return std::get<1>(GetParam()); }
};

TEST_P(LintGate, ImplyProgramIsLintClean) {
  const auto& bc = circuit();
  const Aig aig = Aig::from_netlist(bc.netlist);
  const auto prog = compile_imply(aig, reuse());
  const auto rep = verify::lint_imply(prog, &aig);
  EXPECT_TRUE(rep.diagnostics.empty()) << bc.name << "\n" << dump(rep);
}

TEST_P(LintGate, MagicProgramIsLintClean) {
  const auto& bc = circuit();
  const auto nor =
      Aig::from_netlist(bc.netlist).to_netlist().to_nor_only();
  const auto prog = compile_magic(nor, reuse());
  const auto rep = verify::lint_magic(prog, &nor);
  EXPECT_TRUE(rep.diagnostics.empty()) << bc.name << "\n" << dump(rep);
}

TEST_P(LintGate, RevampProgramIsLintClean) {
  const auto& bc = circuit();
  const Mig mig = Mig::from_aig(Aig::from_netlist(bc.netlist));
  const auto prog = assemble_revamp(mig, schedule_revamp(mig));
  const auto rep = verify::lint_revamp(prog);
  EXPECT_TRUE(rep.diagnostics.empty()) << bc.name << "\n" << dump(rep);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, LintGate,
    ::testing::Combine(::testing::Range<std::size_t>(0, 12),
                       ::testing::Bool()),
    [](const auto& info) {
      static const auto suite = standard_suite();
      return suite[std::get<0>(info.param)].name +
             (std::get<1>(info.param) ? "_reuse" : "_naive");
    });

// The flow-level gate: run_suite must report every mapping lint-clean, and
// the cim-lint summary table must carry one row per report.
TEST(LintGateFlow, WholeSuiteIsLintClean) {
  const auto reports =
      run_suite(standard_suite(), {.reuse_cells = true, .verify = false});
  for (const auto& r : reports) {
    EXPECT_TRUE(r.lint_clean) << r.circuit << " / "
                              << logic_family_name(r.family);
    EXPECT_EQ(r.lint_errors, 0u);
    EXPECT_EQ(r.lint_warnings, 0u);
  }
  EXPECT_EQ(lint_summary(reports).rows(), reports.size());
}

}  // namespace
}  // namespace cim::eda
