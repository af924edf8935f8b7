/// \file test_table_arena.cpp
/// \brief Edge cases of the word-level truth tables: TruthTable::set_word
///        keeps the tail masked, and Netlist, Aig and Mig::truth_tables
///        (computed node by node over one word arena) equal the source
///        netlist's per-assignment `simulate` on zero inputs, one to five
///        inputs (a single partial word), complemented, input and constant
///        outputs, and a 16-input netlist of 1,024 words. Registered under
///        the `lint` label, so the sanitizer slice covers the arena.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "eda/aig.hpp"
#include "eda/mig.hpp"
#include "eda/netlist.hpp"
#include "eda/truth_table.hpp"
#include "util/rng.hpp"

namespace cim::eda {
namespace {

TEST(TableArena, SetWordMasksTheTailBelowSixVariables) {
  for (int vars = 0; vars < 6; ++vars) {
    TruthTable t(vars);
    t.set_word(0, ~0ULL);
    EXPECT_EQ(t.word(0), (1ULL << (1ULL << vars)) - 1) << vars;
    EXPECT_EQ(t, TruthTable::constant(true, vars)) << vars;
    t.set_word(0, 0xAAAAAAAAAAAAAAAAULL);
    EXPECT_EQ(t, vars > 0 ? TruthTable::var(0, vars) : TruthTable(0)) << vars;
  }
  TruthTable wide(7);  // two whole words, no tail
  wide.set_word(1, ~0ULL);
  EXPECT_EQ(wide.word(0), 0u);
  EXPECT_EQ(wide.word(1), ~0ULL);
  EXPECT_EQ(wide, TruthTable::var(6, 7));
  EXPECT_THROW(wide.set_word(2, 0), std::out_of_range);
}

/// Every gate type over `inputs` inputs and two constants, with outputs
/// that include an inverter (a complemented AIG/MIG literal), an input and
/// both constants.
Netlist mixed_netlist(int inputs, int gates, std::uint64_t seed) {
  util::Rng rng(seed);
  Netlist nl;
  for (int i = 0; i < inputs; ++i) (void)nl.add_input();
  const auto c0 = nl.add_const(false);
  const auto c1 = nl.add_const(true);
  const auto any = [&] {
    return static_cast<std::size_t>(rng.uniform_int(nl.num_nodes()));
  };
  for (int g = 0; g < gates; ++g) {
    switch (g % 10) {
      case 0: (void)nl.add_gate(GateType::kNot, {any()}); break;
      case 1: (void)nl.add_gate(GateType::kAnd, {any(), any(), any()}); break;
      case 2: (void)nl.add_gate(GateType::kOr, {any(), any()}); break;
      case 3: (void)nl.add_gate(GateType::kNand, {any(), any()}); break;
      case 4: (void)nl.add_gate(GateType::kNor, {any(), any(), any()}); break;
      case 5: (void)nl.add_gate(GateType::kNor, {any()}); break;
      case 6: (void)nl.add_gate(GateType::kXor, {any(), any()}); break;
      case 7: (void)nl.add_gate(GateType::kXnor, {any(), any()}); break;
      case 8: (void)nl.add_gate(GateType::kMaj, {any(), any(), any()}); break;
      case 9: (void)nl.add_gate(GateType::kOr, {any(), any(), any()}); break;
    }
  }
  const std::size_t last = nl.num_nodes() - 1;
  nl.mark_output(last);
  nl.mark_output(nl.add_gate(GateType::kNot, {last}));
  nl.mark_output(c0);
  nl.mark_output(c1);
  if (inputs > 0) nl.mark_output(nl.inputs().back());
  for (int k = 0; k < 3; ++k) nl.mark_output(any());
  return nl;
}

/// The netlist's, its AIG's and its MIG's tables against `simulate`, at
/// every assignment; also the shape and masked tail of each table.
void expect_tables_simulate(const Netlist& nl) {
  const Aig aig = Aig::from_netlist(nl);
  const Mig mig = Mig::from_aig(aig);
  const std::vector<std::vector<TruthTable>> tables = {
      nl.truth_tables(), aig.truth_tables(), mig.truth_tables()};
  const int vars = static_cast<int>(nl.num_inputs());
  for (const auto& tts : tables) {
    ASSERT_EQ(tts.size(), nl.num_outputs());
    for (const auto& t : tts) {
      ASSERT_EQ(t.vars(), vars);
      if (vars < 6) {
        EXPECT_EQ(t.word(0) >> (1ULL << vars), 0u);
      }
    }
  }
  for (std::uint64_t a = 0; a < (1ULL << vars); ++a) {
    const auto want = nl.simulate(a);
    for (std::size_t w = 0; w < tables.size(); ++w)
      for (std::size_t o = 0; o < want.size(); ++o)
        ASSERT_EQ(tables[w][o].get(a), want[o])
            << "table " << w << " output " << o << " assignment " << a;
  }
}

TEST(TableArena, ZeroInputs) {
  const Netlist nl = mixed_netlist(0, 12, 1);
  ASSERT_EQ(nl.num_inputs(), 0u);
  expect_tables_simulate(nl);
}

TEST(TableArena, OneToFiveInputs) {
  for (int inputs = 1; inputs <= 5; ++inputs) {
    SCOPED_TRACE(inputs);
    expect_tables_simulate(mixed_netlist(inputs, 30, 10 + inputs));
  }
}

TEST(TableArena, ComplementedInputAndConstantOutputs) {
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  nl.mark_output(nl.add_gate(GateType::kNand, {a, b}));
  nl.mark_output(a);
  nl.mark_output(nl.add_const(false));
  nl.mark_output(nl.add_const(true));
  nl.mark_output(nl.add_gate(GateType::kNot, {b}));
  const Aig aig = Aig::from_netlist(nl);
  ASSERT_TRUE(Aig::is_complemented(aig.outputs()[0]));
  ASSERT_EQ(Aig::node_of(aig.outputs()[1]), aig.input_nodes()[0]);
  ASSERT_EQ(aig.outputs()[2], aig.const0());
  ASSERT_EQ(aig.outputs()[3], aig.const1());
  ASSERT_EQ(aig.outputs()[4], Aig::lnot(Aig::make_lit(aig.input_nodes()[1],
                                                      false)));
  const Mig mig = Mig::from_aig(aig);
  ASSERT_TRUE(Mig::is_complemented(mig.outputs()[0]));
  expect_tables_simulate(nl);
}

TEST(TableArena, SixteenInputs) {
  const Netlist nl = mixed_netlist(16, 60, 16);
  const auto tts = nl.truth_tables();
  ASSERT_EQ((tts.front().size() + 63) / 64, 1024u);
  expect_tables_simulate(nl);
}

}  // namespace
}  // namespace cim::eda
