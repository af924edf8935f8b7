#include "eda/flow.hpp"

#include <gtest/gtest.h>

namespace cim::eda {
namespace {

TEST(Flow, SingleCircuitAllFamiliesVerified) {
  const auto nl = ripple_carry_adder(2);
  for (const auto family : all_logic_families()) {
    const auto rep = run_flow("rca2", nl, family);
    EXPECT_TRUE(rep.verified) << logic_family_name(family);
    EXPECT_GT(rep.devices, 0u);
    EXPECT_GT(rep.delay, 0u);
    EXPECT_DOUBLE_EQ(rep.area_delay_product,
                     static_cast<double>(rep.devices * rep.delay));
  }
}

TEST(Flow, SynthesisStatsPopulated) {
  const auto nl = comparator_gt(3);
  const auto rep = run_flow("cmp3", nl, LogicFamily::kMagic);
  EXPECT_GT(rep.aig_nodes, 0u);
  EXPECT_GT(rep.aig_depth, 0u);
  EXPECT_GT(rep.mig_nodes, 0u);
  // Single-output circuit: ESOP and BDD stats present.
  EXPECT_GT(rep.esop_cubes, 0u);
  EXPECT_GT(rep.bdd_nodes, 0u);
}

TEST(Flow, MultiOutputSkipsSingleOutputStats) {
  const auto nl = ripple_carry_adder(2);
  const auto rep = run_flow("rca2", nl, LogicFamily::kImply);
  EXPECT_EQ(rep.esop_cubes, 0u);
  EXPECT_EQ(rep.bdd_nodes, 0u);
}

TEST(Flow, SuiteRunsAllCombinations) {
  // Word-level verification makes the exhaustive check of the whole suite
  // cheap, mux8's 11 inputs included.
  const auto suite = standard_suite();
  const auto reports = run_suite(suite);
  EXPECT_EQ(reports.size(), 3 * suite.size());
  for (const auto& rep : reports)
    EXPECT_TRUE(rep.verified)
        << rep.circuit << " / " << logic_family_name(rep.family);
}

TEST(Flow, MigDepthNeverExceedsAigDepthByMuch) {
  // AND -> MAJ conversion is depth-preserving.
  for (const auto& bc : standard_suite()) {
    const auto rep = run_flow(bc.name, bc.netlist, LogicFamily::kMajority,
                              {.reuse_cells = true, .verify = false});
    EXPECT_LE(rep.mig_depth, rep.aig_depth) << bc.name;
  }
}

TEST(Flow, FamilyNamesKnown) {
  for (const auto f : all_logic_families())
    EXPECT_NE(logic_family_name(f), "unknown");
}

}  // namespace
}  // namespace cim::eda
