#include "eda/truth_table.hpp"

#include <gtest/gtest.h>

namespace cim::eda {
namespace {

TEST(TruthTable, ConstantsAndVars) {
  const auto zero = TruthTable::constant(false, 3);
  const auto one = TruthTable::constant(true, 3);
  EXPECT_EQ(zero.count_ones(), 0u);
  EXPECT_EQ(one.count_ones(), 8u);
  const auto x0 = TruthTable::var(0, 3);
  EXPECT_EQ(x0.count_ones(), 4u);
  for (std::uint64_t m = 0; m < 8; ++m) EXPECT_EQ(x0.get(m), (m & 1) != 0);
}

TEST(TruthTable, HighVariablesBeyondWordBoundary) {
  const auto x7 = TruthTable::var(7, 8);  // 256 minterms, 4 words
  for (std::uint64_t m = 0; m < 256; m += 17)
    EXPECT_EQ(x7.get(m), ((m >> 7) & 1) != 0) << m;
}

TEST(TruthTable, BooleanOperators) {
  const auto a = TruthTable::var(0, 2);
  const auto b = TruthTable::var(1, 2);
  EXPECT_EQ((a & b).to_binary_string(), "1000");
  EXPECT_EQ((a | b).to_binary_string(), "1110");
  EXPECT_EQ((a ^ b).to_binary_string(), "0110");
  EXPECT_EQ((~a).to_binary_string(), "0101");
}

TEST(TruthTable, MajOperator) {
  const auto a = TruthTable::var(0, 3);
  const auto b = TruthTable::var(1, 3);
  const auto c = TruthTable::var(2, 3);
  const auto m = TruthTable::maj(a, b, c);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const int votes = int(i & 1) + int((i >> 1) & 1) + int((i >> 2) & 1);
    EXPECT_EQ(m.get(i), votes >= 2);
  }
}

TEST(TruthTable, BinaryStringRoundTrip) {
  const std::string s = "01101001";
  const auto tt = TruthTable::from_binary_string(s);
  EXPECT_EQ(tt.vars(), 3);
  EXPECT_EQ(tt.to_binary_string(), s);
}

TEST(TruthTable, FromBinaryStringValidation) {
  EXPECT_THROW((void)TruthTable::from_binary_string(""), std::invalid_argument);
  EXPECT_THROW((void)TruthTable::from_binary_string("011"), std::invalid_argument);
  EXPECT_THROW((void)TruthTable::from_binary_string("0a"), std::invalid_argument);
}

TEST(TruthTable, Cofactors) {
  // f = x0 & x1 : f|x0=1 = x1, f|x0=0 = 0.
  const auto f = TruthTable::var(0, 2) & TruthTable::var(1, 2);
  EXPECT_TRUE(f.cofactor(0, true) == TruthTable::var(1, 2));
  EXPECT_TRUE(f.cofactor(0, false) == TruthTable::constant(false, 2));
}

TEST(TruthTable, CofactorIsIndependentOfVariable) {
  const auto f = TruthTable::var(0, 3) ^ TruthTable::var(2, 3);
  const auto g = f.cofactor(0, true);
  EXPECT_FALSE(g.depends_on(0));
  EXPECT_TRUE(g.depends_on(2));
}

TEST(TruthTable, DependsOn) {
  const auto f = TruthTable::var(1, 4);
  EXPECT_FALSE(f.depends_on(0));
  EXPECT_TRUE(f.depends_on(1));
  EXPECT_FALSE(f.depends_on(3));
}

TEST(TruthTable, ShannonExpansionIdentity) {
  // f == (x & f|x=1) | (!x & f|x=0) for every variable.
  const auto f = (TruthTable::var(0, 4) & TruthTable::var(1, 4)) ^
                 TruthTable::var(3, 4);
  for (int v = 0; v < 4; ++v) {
    const auto x = TruthTable::var(v, 4);
    const auto rebuilt =
        (x & f.cofactor(v, true)) | (~x & f.cofactor(v, false));
    EXPECT_TRUE(rebuilt == f) << "var " << v;
  }
}

TEST(TruthTable, IsConstant) {
  EXPECT_TRUE(TruthTable::constant(false, 4).is_constant());
  EXPECT_TRUE(TruthTable::constant(true, 4).is_constant());
  EXPECT_FALSE(TruthTable::var(2, 4).is_constant());
}

TEST(TruthTable, MismatchedVarsThrow) {
  const auto a = TruthTable::var(0, 2);
  const auto b = TruthTable::var(0, 3);
  EXPECT_THROW((void)(a & b), std::invalid_argument);
}

TEST(TruthTable, ZeroVarTables) {
  auto t = TruthTable::constant(true, 0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.get(0));
}

TEST(TruthTable, BoundsChecked) {
  TruthTable t(2);
  EXPECT_THROW((void)t.get(4), std::out_of_range);
  EXPECT_THROW(t.set(4, true), std::out_of_range);
  EXPECT_THROW((void)TruthTable::var(2, 2), std::invalid_argument);
  EXPECT_THROW(TruthTable(17), std::invalid_argument);
}

TEST(TruthTable, WordPacksSixtyFourMinterms) {
  const auto x6 = TruthTable::var(6, 7);  // 2 words: x6 = 0, then 1
  EXPECT_EQ(x6.word(0), 0u);
  EXPECT_EQ(x6.word(1), ~0ULL);
  EXPECT_EQ(TruthTable::var(0, 7).word(1), 0xAAAAAAAAAAAAAAAAULL);
  // Below 6 variables the one word holds 2^vars minterms, zeros above.
  EXPECT_EQ(TruthTable::constant(true, 3).word(0), 0xFFULL);
  EXPECT_EQ(TruthTable::from_binary_string("0110").word(0), 0x6ULL);
  EXPECT_THROW((void)x6.word(2), std::out_of_range);
}

}  // namespace
}  // namespace cim::eda
