#include "eda/majority_mapper.hpp"

#include <gtest/gtest.h>

#include "eda/bench_circuits.hpp"
#include "eda/revamp_isa.hpp"
#include "verified.hpp"

namespace cim::eda {
namespace {

Mig from_bench(const Netlist& nl) { return Mig::from_aig(Aig::from_netlist(nl)); }

TEST(MajorityMapper, SingleMajNode) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  const auto c = mig.add_input();
  mig.mark_output(mig.lmaj(a, b, c));
  const auto sched = schedule_revamp(mig);
  EXPECT_EQ(sched.num_levels, 1u);
  EXPECT_EQ(sched.device_count, 1u);
  EXPECT_TRUE(verified(assemble_revamp(mig, sched), mig));
}

TEST(MajorityMapper, ConstantAndInputOutputs) {
  Mig mig;
  const auto a = mig.add_input();
  mig.mark_output(mig.const1());
  mig.mark_output(a);
  mig.mark_output(Mig::lnot(a));
  EXPECT_TRUE(verified(assemble_revamp(mig, schedule_revamp(mig)), mig));
}

class MajoritySuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MajoritySuite, BenchmarkCircuitVerifies) {
  const auto suite = standard_suite();
  const auto& bc = suite[GetParam()];
  const auto mig = from_bench(bc.netlist);
  const auto sched = schedule_revamp(mig);
  EXPECT_TRUE(verified(assemble_revamp(mig, sched), mig)) << bc.name;
  EXPECT_EQ(sched.device_count, mig.num_majs());
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, MajoritySuite,
    ::testing::Range<std::size_t>(0, standard_suite().size()));

TEST(MajorityMapper, DelayRespectsLowerBound) {
  // [67]: delay-optimal mapping achieves MIG levels + 1 with unconstrained
  // devices; any realizable schedule is at least that.
  for (const auto& bc : standard_suite()) {
    const auto mig = from_bench(bc.netlist);
    const auto sched = schedule_revamp(mig);
    if (mig.num_majs() == 0) continue;
    EXPECT_GE(sched.delay(), sched.delay_lower_bound()) << bc.name;
  }
}

TEST(MajorityMapper, DelayDecomposition) {
  const auto mig = from_bench(ripple_carry_adder(3));
  const auto sched = schedule_revamp(mig);
  EXPECT_EQ(sched.delay(), sched.read_steps + sched.init_steps + sched.maj_steps);
  // Two init steps per occupied level (reset + preload write).
  EXPECT_EQ(sched.init_steps, 2u * sched.rows);
}

TEST(MajorityMapper, GroupingBoundedByLevelWidth) {
  const auto mig = from_bench(array_multiplier(2));
  const auto sched = schedule_revamp(mig);
  // Apply steps can never exceed one group per node.
  EXPECT_LE(sched.maj_steps, mig.num_majs());
  EXPECT_LE(sched.max_row_width * sched.rows + sched.rows,
            mig.num_majs() + sched.rows + sched.max_row_width * sched.rows);
}

TEST(MajorityMapper, PlanCoversEveryMajNode) {
  const auto mig = from_bench(comparator_gt(3));
  const auto sched = schedule_revamp(mig);
  EXPECT_EQ(sched.plan.size(), mig.num_majs());
}

TEST(MajorityOnCrossbar, ChargesDeviceOperations) {
  const auto mig = from_bench(parity(3));
  const auto prog = assemble_revamp(mig, schedule_revamp(mig));
  crossbar::CrossbarConfig cfg;
  cfg.rows = prog.wordlines;
  cfg.cols = prog.bitlines;
  cfg.tech = device::Technology::kSttMram;
  cfg.levels = 2;
  crossbar::Crossbar xbar(cfg);
  (void)execute_revamp_program(xbar, prog, 5);
  // Three device writes per node (RESET, PRELOAD, MAJ apply); READs latch
  // the DMR without a logic op.
  EXPECT_EQ(xbar.stats().logic_ops, 3 * mig.num_majs());
  EXPECT_GT(xbar.stats().energy_pj, 0.0);
}

}  // namespace
}  // namespace cim::eda
