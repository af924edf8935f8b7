#include "eda/magic_mapper.hpp"

#include <gtest/gtest.h>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "verified.hpp"

namespace cim::eda {
namespace {

Netlist nor_of(const Netlist& nl) {
  return Aig::from_netlist(nl).to_netlist().to_nor_only();
}

TEST(MagicMapper, SimpleNorCompiles) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  nl.mark_output(nl.add_gate(GateType::kNor, {a, b}));
  const auto prog = compile_magic(nl);
  EXPECT_EQ(prog.nor_count(), 1u);
  EXPECT_EQ(prog.delay(), 2u);  // SET + NOR
  EXPECT_TRUE(verified(prog, nl));
}

TEST(MagicMapper, RejectsNonNorNetlist) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  nl.mark_output(nl.add_gate(GateType::kAnd, {a, b}));
  EXPECT_THROW((void)compile_magic(nl), std::invalid_argument);
}

class MagicSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MagicSuite, BenchmarkCircuitVerifies) {
  const auto suite = standard_suite();
  const auto& bc = suite[GetParam()];
  const auto nor = nor_of(bc.netlist);
  const auto prog = compile_magic(nor);
  EXPECT_TRUE(verified(prog, nor)) << bc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, MagicSuite,
    ::testing::Range<std::size_t>(0, standard_suite().size()));

TEST(MagicMapper, ReuseShrinksAreaSameDelay) {
  const auto nor = nor_of(ripple_carry_adder(4));
  const auto plain = compile_magic(nor, /*reuse=*/false);
  const auto reuse = compile_magic(nor, /*reuse=*/true);
  EXPECT_LT(reuse.num_cells, plain.num_cells);
  EXPECT_EQ(reuse.delay(), plain.delay());
  EXPECT_TRUE(verified(reuse, nor));
}

TEST(MagicMapper, DelayIsTwoPerGate) {
  const auto nor = nor_of(parity(4));
  const auto prog = compile_magic(nor);
  EXPECT_EQ(prog.delay(), 2u * prog.nor_count());
}

TEST(MagicMapper, ConstantOutputsResolvedStatically) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto one = nl.add_const(true);
  // NOR(a, 1) == 0 regardless of a.
  nl.mark_output(nl.add_gate(GateType::kNor, {a, one}));
  const auto prog = compile_magic(nl);
  EXPECT_EQ(prog.nor_count(), 0u);  // folded away
  EXPECT_TRUE(verified(prog, nl));
}

TEST(MagicMapper, ConstZeroFaninsDropped) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto zero = nl.add_const(false);
  nl.mark_output(nl.add_gate(GateType::kNor, {a, zero}));  // == NOT a
  const auto prog = compile_magic(nl);
  EXPECT_EQ(prog.nor_count(), 1u);
  EXPECT_TRUE(verified(prog, nl));
}

TEST(MagicMapper, AreaDelayTradeoffMeasured) {
  // Area-constrained mapping (CONTRA-flavoured) gives a strictly better
  // area-delay product here since delay is unchanged.
  const auto nor = nor_of(array_multiplier(3));
  const auto plain = compile_magic(nor, false);
  const auto reuse = compile_magic(nor, true);
  const double adp_plain =
      static_cast<double>(plain.num_cells) * static_cast<double>(plain.delay());
  const double adp_reuse =
      static_cast<double>(reuse.num_cells) * static_cast<double>(reuse.delay());
  EXPECT_LT(adp_reuse, adp_plain);
}

}  // namespace
}  // namespace cim::eda
