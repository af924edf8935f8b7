#include "eda/revamp_isa.hpp"

#include <gtest/gtest.h>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"

namespace cim::eda {
namespace {

Mig mig_of(const Netlist& nl) { return Mig::from_aig(Aig::from_netlist(nl)); }

TEST(RevampIsa, SingleMajAssemblesToThreeApplies) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  const auto c = mig.add_input();
  mig.mark_output(mig.lmaj(a, b, c));
  const auto sched = schedule_revamp(mig);
  const auto prog = assemble_revamp(mig, sched);
  // RESET + PRELOAD + one group apply; no producer reads (inputs ride the
  // PIR), one final read for the output.
  EXPECT_EQ(prog.apply_count(), 3u);
  EXPECT_EQ(prog.read_count(), 1u);
  EXPECT_TRUE(verify_revamp(prog, mig));
}

TEST(RevampIsa, InstructionCountMatchesScheduleDelay) {
  const auto mig = mig_of(ripple_carry_adder(3));
  const auto sched = schedule_revamp(mig);
  const auto prog = assemble_revamp(mig, sched);
  // Applies = 2 per level (reset+preload) + one per group = init + maj steps.
  EXPECT_EQ(prog.apply_count(), sched.init_steps + sched.maj_steps);
  // Reads >= the schedule's conservative estimate (plus output latching).
  EXPECT_GE(prog.read_count(), sched.read_steps);
}

TEST(RevampIsa, DisassemblyIsReadable) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  mig.mark_output(mig.land(a, b));
  const auto prog = assemble_revamp(mig, schedule_revamp(mig));
  const auto listing = prog.disassemble();
  EXPECT_NE(listing.find("APPLY r0"), std::string::npos);
  EXPECT_NE(listing.find("PI[0]"), std::string::npos);
  EXPECT_NE(listing.find("READ"), std::string::npos);
  EXPECT_NE(listing.find("; outputs:"), std::string::npos);
}

TEST(RevampIsa, ConstantAndPassthroughOutputs) {
  Mig mig;
  const auto a = mig.add_input();
  mig.mark_output(mig.const1());
  mig.mark_output(Mig::lnot(a));
  EXPECT_TRUE(verify_revamp(assemble_revamp(mig, schedule_revamp(mig)), mig));
}

TEST(RevampIsa, ExecutionRequiresBigEnoughArray) {
  const auto mig = mig_of(ripple_carry_adder(2));
  const auto prog = assemble_revamp(mig, schedule_revamp(mig));
  crossbar::CrossbarConfig cfg;
  cfg.rows = 1;
  cfg.cols = 1;
  crossbar::Crossbar xbar(cfg);
  EXPECT_THROW((void)execute_revamp_program(xbar, prog, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cim::eda
