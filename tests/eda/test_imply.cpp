#include "eda/imply_mapper.hpp"

#include <gtest/gtest.h>

#include "eda/bench_circuits.hpp"

namespace cim::eda {
namespace {

Aig xor_aig() {
  Aig aig;
  const auto a = aig.add_input();
  const auto b = aig.add_input();
  aig.mark_output(aig.lxor(a, b));
  return aig;
}

TEST(ImplyMapper, XorCompilesAndVerifies) {
  const auto aig = xor_aig();
  const auto prog = compile_imply(aig);
  EXPECT_GT(prog.delay(), 0u);
  EXPECT_GT(prog.num_cells, aig.num_inputs());
  EXPECT_TRUE(verify_imply(prog, aig));
}

TEST(ImplyMapper, ConstantOutputs) {
  Aig aig;
  (void)aig.add_input();
  aig.mark_output(aig.const0());
  aig.mark_output(aig.const1());
  const auto prog = compile_imply(aig);
  EXPECT_TRUE(verify_imply(prog, aig));
}

TEST(ImplyMapper, InputPassthroughAndComplement) {
  Aig aig;
  const auto a = aig.add_input();
  aig.mark_output(a);
  aig.mark_output(Aig::lnot(a));
  const auto prog = compile_imply(aig);
  EXPECT_TRUE(verify_imply(prog, aig));
}

class ImplySuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ImplySuite, BenchmarkCircuitVerifies) {
  const auto suite = standard_suite();
  const auto& bc = suite[GetParam()];
  const auto aig = Aig::from_netlist(bc.netlist);
  const auto prog = compile_imply(aig);
  EXPECT_TRUE(verify_imply(prog, aig)) << bc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, ImplySuite,
    ::testing::Range<std::size_t>(0, standard_suite().size()));

TEST(ImplyMapper, ReuseShrinksAreaKeepsFunction) {
  const auto nl = ripple_carry_adder(3);
  const auto aig = Aig::from_netlist(nl);
  const auto plain = compile_imply(aig, /*reuse=*/false);
  const auto reuse = compile_imply(aig, /*reuse=*/true);
  EXPECT_LE(reuse.num_cells, plain.num_cells);
  EXPECT_TRUE(verify_imply(reuse, aig));
  EXPECT_TRUE(verify_imply(plain, aig));
}

TEST(ImplyMapper, DelayGrowsWithCircuitSize) {
  const auto small = compile_imply(Aig::from_netlist(parity(3)));
  const auto large = compile_imply(Aig::from_netlist(parity(8)));
  EXPECT_GT(large.delay(), small.delay());
}

TEST(ImplyMapper, ProgramUsesOnlyFalseAndImply) {
  const auto prog = compile_imply(xor_aig());
  for (const auto& ins : prog.instrs) {
    EXPECT_TRUE(ins.kind == ImplyInstr::Kind::kFalse ||
                ins.kind == ImplyInstr::Kind::kImply);
    EXPECT_LT(ins.dest, prog.num_cells);
    if (ins.kind == ImplyInstr::Kind::kImply) {
      EXPECT_LT(ins.src, prog.num_cells);
    }
  }
}

TEST(ImplyMapper, NarrowCrossbarThrows) {
  const auto aig = xor_aig();
  const auto prog = compile_imply(aig);
  crossbar::CrossbarConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;  // far too narrow
  cfg.tech = device::Technology::kSttMram;
  crossbar::Crossbar xbar(cfg);
  EXPECT_THROW((void)execute_imply(xbar, prog, 0), std::invalid_argument);
}

}  // namespace
}  // namespace cim::eda
