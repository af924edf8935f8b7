#include "eda/mig.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "eda/bench_circuits.hpp"

namespace cim::eda {
namespace {

TEST(Mig, MajorityAxioms) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  // M(x, x, y) = x
  EXPECT_EQ(mig.lmaj(a, a, b), a);
  // M(x, !x, y) = y
  EXPECT_EQ(mig.lmaj(a, Mig::lnot(a), b), b);
  EXPECT_EQ(mig.num_majs(), 0u);
}

TEST(Mig, AndOrViaConstants) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  mig.mark_output(mig.land(a, b));
  mig.mark_output(mig.lor(a, b));
  const auto tts = mig.truth_tables();
  EXPECT_EQ(tts[0].to_binary_string(), "1000");
  EXPECT_EQ(tts[1].to_binary_string(), "1110");
}

TEST(Mig, SelfDualityCanonicalization) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  const auto c = mig.add_input();
  const auto m1 = mig.lmaj(a, b, c);
  // M(!a, !b, !c) must hash to the complement of the same node.
  const auto m2 = mig.lmaj(Mig::lnot(a), Mig::lnot(b), Mig::lnot(c));
  EXPECT_EQ(m2, Mig::lnot(m1));
  EXPECT_EQ(mig.num_majs(), 1u);
}

TEST(Mig, XorTruth) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  mig.mark_output(mig.lxor(a, b));
  EXPECT_EQ(mig.truth_tables()[0].to_binary_string(), "0110");
}

TEST(Mig, StructuralHashingShares) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  const auto c = mig.add_input();
  const auto m1 = mig.lmaj(a, b, c);
  const auto m2 = mig.lmaj(c, a, b);  // permuted fanins
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(mig.num_majs(), 1u);
}

TEST(Mig, FromAigPreservesFunctions) {
  for (const auto& bc : standard_suite()) {
    const auto aig = Aig::from_netlist(bc.netlist);
    const auto mig = Mig::from_aig(aig);
    EXPECT_TRUE(mig.truth_tables() == aig.truth_tables()) << bc.name;
  }
}

TEST(Mig, MajNodeIsNativeNotThree) {
  // MAJ in an MIG is one node; in an AIG it takes several ANDs.
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  const auto c = mig.add_input();
  mig.mark_output(mig.lmaj(a, b, c));
  EXPECT_EQ(mig.num_majs(), 1u);

  Aig aig;
  const auto x = aig.add_input();
  const auto y = aig.add_input();
  const auto z = aig.add_input();
  aig.mark_output(aig.lmaj(x, y, z));
  EXPECT_GT(aig.num_ands(), 1u);
}

TEST(Mig, DepthAndLevels) {
  Mig mig;
  const auto a = mig.add_input();
  const auto b = mig.add_input();
  const auto c = mig.add_input();
  const auto m1 = mig.lmaj(a, b, c);
  const auto m2 = mig.lmaj(m1, a, b);
  mig.mark_output(m2);
  EXPECT_EQ(mig.depth(), 2u);
  const auto lv = mig.levels();
  EXPECT_EQ(lv[Mig::node_of(m1)], 1u);
  EXPECT_EQ(lv[Mig::node_of(m2)], 2u);
}

// Structural hashing compares whole fanin literals. A key packing each of
// the three sorted literals into 21 bits let a literal at or past 2^21
// carry into the next field: with 2^20 + 8 inputs, M(x1, x3, x_{2^20+4})
// (literals 4, 8, 2^21 + 10) packed to the key of M(x1, !x3, x4)
// (literals 4, 9, 10) and came back as that node, a different function.
TEST(Mig, StrashKeysAreExactPastTwentyOneBits) {
  Mig mig;
  std::vector<Mig::Lit> x((1u << 20) + 8);
  for (auto& l : x) l = mig.add_input();
  const auto first = mig.lmaj(x[1], Mig::lnot(x[3]), x[4]);
  const auto far = x[(1u << 20) + 4];
  const auto second = mig.lmaj(x[1], x[3], far);
  EXPECT_NE(Mig::node_of(second), Mig::node_of(first));
  EXPECT_EQ(mig.num_majs(), 2u);
  const auto& n = mig.node(Mig::node_of(second));
  EXPECT_EQ(n.fanin[0], x[1]);
  EXPECT_EQ(n.fanin[1], x[3]);
  EXPECT_EQ(n.fanin[2], far);
  // Both nodes still hash-cons to themselves.
  EXPECT_EQ(mig.lmaj(far, x[3], x[1]), second);
  EXPECT_EQ(mig.lmaj(x[4], x[1], Mig::lnot(x[3])), first);
}

}  // namespace
}  // namespace cim::eda
