#include "eda/netlist.hpp"

#include <gtest/gtest.h>

#include "eda/bench_circuits.hpp"

namespace cim::eda {
namespace {

Netlist xor_gate() {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  nl.mark_output(nl.add_gate(GateType::kXor, {a, b}));
  return nl;
}

TEST(Netlist, SimulateAllGateTypes) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  const auto c = nl.add_input();
  nl.mark_output(nl.add_gate(GateType::kNot, {a}));
  nl.mark_output(nl.add_gate(GateType::kAnd, {a, b}));
  nl.mark_output(nl.add_gate(GateType::kOr, {a, b}));
  nl.mark_output(nl.add_gate(GateType::kNand, {a, b}));
  nl.mark_output(nl.add_gate(GateType::kNor, {a, b}));
  nl.mark_output(nl.add_gate(GateType::kXor, {a, b}));
  nl.mark_output(nl.add_gate(GateType::kXnor, {a, b}));
  nl.mark_output(nl.add_gate(GateType::kMaj, {a, b, c}));

  for (std::uint64_t m = 0; m < 8; ++m) {
    const bool va = m & 1, vb = (m >> 1) & 1, vc = (m >> 2) & 1;
    const auto out = nl.simulate(m);
    EXPECT_EQ(out[0], !va);
    EXPECT_EQ(out[1], va && vb);
    EXPECT_EQ(out[2], va || vb);
    EXPECT_EQ(out[3], !(va && vb));
    EXPECT_EQ(out[4], !(va || vb));
    EXPECT_EQ(out[5], va != vb);
    EXPECT_EQ(out[6], va == vb);
    EXPECT_EQ(out[7], (int(va) + int(vb) + int(vc)) >= 2);
  }
}

TEST(Netlist, TruthTablesMatchSimulation) {
  const auto nl = xor_gate();
  const auto tts = nl.truth_tables();
  ASSERT_EQ(tts.size(), 1u);
  EXPECT_EQ(tts[0].to_binary_string(), "0110");
}

/// Every GateType, multi-fanin AND/OR/NAND/NOR and a single-fanin NOR,
/// over 7 inputs so the tables span two words.
Netlist every_gate_type() {
  Netlist nl;
  std::vector<std::size_t> x;
  for (int i = 0; i < 7; ++i) x.push_back(nl.add_input());
  const auto zero = nl.add_const(false);
  const auto one = nl.add_const(true);
  const auto n = nl.add_gate(GateType::kNot, {x[6]});
  const auto a = nl.add_gate(GateType::kAnd, {x[0], x[1], n});
  const auto o = nl.add_gate(GateType::kOr, {x[2], zero, x[6]});
  const auto d = nl.add_gate(GateType::kNand, {a, o, x[3]});
  const auto r = nl.add_gate(GateType::kNor, {x[4], d});
  const auto r1 = nl.add_gate(GateType::kNor, {x[5]});
  const auto e = nl.add_gate(GateType::kXor, {r, x[6]});
  const auto q = nl.add_gate(GateType::kXnor, {e, one});
  for (const auto out : {nl.add_gate(GateType::kMaj, {q, r1, x[0]}), a, o, d,
                         r, e, q, zero, one, x[6]})
    nl.mark_output(out);
  return nl;
}

// truth_tables is computed gate by gate; simulate stays the scalar
// reference it must equal at every assignment.
TEST(Netlist, GateWiseTruthTablesMatchSimulate) {
  auto circuits = standard_suite();
  circuits.push_back({"every_gate_type", every_gate_type()});
  for (const auto& bc : circuits) {
    const auto& nl = bc.netlist;
    const auto tts = nl.truth_tables();
    ASSERT_EQ(tts.size(), nl.num_outputs()) << bc.name;
    for (std::uint64_t a = 0; a < (1ULL << nl.num_inputs()); ++a) {
      const auto out = nl.simulate(a);
      for (std::size_t o = 0; o < out.size(); ++o)
        ASSERT_EQ(tts[o].get(a), out[o])
            << bc.name << " output " << o << " assignment " << a;
    }
  }
}

TEST(Netlist, DepthAndCounts) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  const auto g1 = nl.add_gate(GateType::kAnd, {a, b});
  const auto g2 = nl.add_gate(GateType::kNot, {g1});
  nl.mark_output(g2);
  EXPECT_EQ(nl.depth(), 2u);
  EXPECT_EQ(nl.gate_count(), 2u);
  EXPECT_EQ(nl.count(GateType::kAnd), 1u);
  EXPECT_EQ(nl.num_inputs(), 2u);
}

TEST(Netlist, FaninValidation) {
  Netlist nl;
  const auto a = nl.add_input();
  EXPECT_THROW(nl.add_gate(GateType::kNot, {a, a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kAnd, {a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kMaj, {a, a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kAnd, {a, 99}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kInput, {}), std::invalid_argument);
  EXPECT_THROW(nl.mark_output(42), std::out_of_range);
}

TEST(Netlist, ConstantsPropagate) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto one = nl.add_const(true);
  nl.mark_output(nl.add_gate(GateType::kAnd, {a, one}));
  EXPECT_EQ(nl.simulate(0)[0], false);
  EXPECT_EQ(nl.simulate(1)[0], true);
}

class NorOnlyEquivalence : public ::testing::TestWithParam<GateType> {};

TEST_P(NorOnlyEquivalence, TransformPreservesFunction) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  const auto c = nl.add_input();
  if (GetParam() == GateType::kNot) {
    nl.mark_output(nl.add_gate(GateType::kNot, {a}));
  } else if (GetParam() == GateType::kMaj) {
    nl.mark_output(nl.add_gate(GateType::kMaj, {a, b, c}));
  } else {
    nl.mark_output(nl.add_gate(GetParam(), {a, b}));
  }
  const auto nor = nl.to_nor_only();
  // Every gate in the result is a NOR (or input/const).
  for (std::size_t i = 0; i < nor.num_nodes(); ++i) {
    const auto t = nor.gate(i).type;
    EXPECT_TRUE(t == GateType::kInput || t == GateType::kConst0 ||
                t == GateType::kConst1 || t == GateType::kNor);
  }
  EXPECT_TRUE(nl.truth_tables() == nor.truth_tables());
}

INSTANTIATE_TEST_SUITE_P(
    Gates, NorOnlyEquivalence,
    ::testing::Values(GateType::kNot, GateType::kAnd, GateType::kOr,
                      GateType::kNand, GateType::kNor, GateType::kXor,
                      GateType::kXnor, GateType::kMaj),
    [](const auto& info) { return std::string(gate_type_name(info.param)); });

TEST(Netlist, NorOnlyPreservesOutputOrder) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  nl.mark_output(nl.add_gate(GateType::kAnd, {a, b}));
  nl.mark_output(nl.add_gate(GateType::kOr, {a, b}));
  const auto nor = nl.to_nor_only();
  EXPECT_EQ(nor.num_outputs(), 2u);
  const auto tts = nor.truth_tables();
  EXPECT_EQ(tts[0].to_binary_string(), "1000");
  EXPECT_EQ(tts[1].to_binary_string(), "1110");
}

}  // namespace
}  // namespace cim::eda
