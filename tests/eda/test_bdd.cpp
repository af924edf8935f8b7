#include "eda/bdd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace cim::eda {
namespace {

TEST(Bdd, TerminalsAndVars) {
  BddManager mgr(3);
  EXPECT_TRUE(mgr.is_terminal(mgr.zero()));
  EXPECT_TRUE(mgr.is_terminal(mgr.one()));
  const auto x0 = mgr.var(0);
  EXPECT_FALSE(mgr.is_terminal(x0));
  EXPECT_EQ(mgr.size(x0), 1u);
}

TEST(Bdd, VarIsCanonical) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.var(1), mgr.var(1));
}

TEST(Bdd, BasicOperations) {
  BddManager mgr(2);
  const auto a = mgr.var(0);
  const auto b = mgr.var(1);
  EXPECT_EQ(mgr.to_truth_table(mgr.band(a, b)).to_binary_string(), "1000");
  EXPECT_EQ(mgr.to_truth_table(mgr.bor(a, b)).to_binary_string(), "1110");
  EXPECT_EQ(mgr.to_truth_table(mgr.bxor(a, b)).to_binary_string(), "0110");
  EXPECT_EQ(mgr.to_truth_table(mgr.bnot(a)).to_binary_string(), "0101");
}

TEST(Bdd, CanonicityAcrossConstructions) {
  BddManager mgr(3);
  const auto a = mgr.var(0);
  const auto b = mgr.var(1);
  // De Morgan: !(a & b) == !a | !b — identical node refs in a canonical BDD.
  EXPECT_EQ(mgr.bnot(mgr.band(a, b)), mgr.bor(mgr.bnot(a), mgr.bnot(b)));
  // a ^ b == (a|b) & !(a&b)
  EXPECT_EQ(mgr.bxor(a, b),
            mgr.band(mgr.bor(a, b), mgr.bnot(mgr.band(a, b))));
}

TEST(Bdd, FromTruthTableRoundTrip) {
  BddManager mgr(4);
  const auto tt = TruthTable::from_binary_string("0110100110010110");
  const auto f = mgr.from_truth_table(tt);
  EXPECT_TRUE(mgr.to_truth_table(f) == tt);
}

TEST(Bdd, ParityHasLinearSize) {
  // XOR chains are the BDD sweet spot: n internal levels, 2 nodes per level.
  BddManager mgr(8);
  auto f = mgr.var(0);
  for (int i = 1; i < 8; ++i) f = mgr.bxor(f, mgr.var(i));
  EXPECT_LE(mgr.size(f), 2u * 8u);
  EXPECT_EQ(mgr.sat_count(f), 128u);  // half of 2^8
}

TEST(Bdd, SatCount) {
  BddManager mgr(3);
  const auto a = mgr.var(0);
  const auto b = mgr.var(1);
  EXPECT_EQ(mgr.sat_count(mgr.band(a, b)), 2u);  // 2 of 8 (x2 free)
  EXPECT_EQ(mgr.sat_count(mgr.bor(a, b)), 6u);
  EXPECT_EQ(mgr.sat_count(mgr.one()), 8u);
  EXPECT_EQ(mgr.sat_count(mgr.zero()), 0u);
}

TEST(Bdd, ReductionEliminatesRedundantTests) {
  BddManager mgr(2);
  const auto a = mgr.var(0);
  // ite(a, b, b) == b: the test on a must vanish.
  const auto b = mgr.var(1);
  EXPECT_EQ(mgr.ite(a, b, b), b);
}

TEST(Bdd, ConstantTruthTables) {
  BddManager mgr(2);
  const auto t0 = mgr.from_truth_table(TruthTable::constant(false, 2));
  const auto t1 = mgr.from_truth_table(TruthTable::constant(true, 2));
  EXPECT_EQ(t0, mgr.zero());
  EXPECT_EQ(t1, mgr.one());
}

TEST(Bdd, TruthTableAndIteConstructionsShareCanonicalForm) {
  // The same function built via from_truth_table and via ITE operations
  // must hash to the identical node (one shared variable order).
  BddManager mgr(3);
  const auto via_tt = mgr.from_truth_table(TruthTable::var(0, 3) &
                                           TruthTable::var(2, 3));
  const auto via_ite = mgr.band(mgr.var(0), mgr.var(2));
  EXPECT_EQ(via_tt, via_ite);
  // And mixing them in further operations behaves.
  EXPECT_EQ(mgr.band(via_tt, mgr.var(1)),
            mgr.band(via_ite, mgr.var(1)));
}

TEST(Bdd, Validation) {
  EXPECT_THROW(BddManager(-1), std::invalid_argument);
  EXPECT_THROW(BddManager(21), std::invalid_argument);
  BddManager mgr(2);
  EXPECT_THROW((void)mgr.var(2), std::invalid_argument);
  EXPECT_THROW((void)mgr.from_truth_table(TruthTable::constant(false, 3)),
               std::invalid_argument);
}

/// The minterm-by-minterm builder from_truth_table replaced: one
/// make_node per block, down to single minterms, over its own unique
/// table, and the std::set walk size() used to make.
struct MintermBuilder {
  using Ref = BddManager::Ref;
  std::vector<BddManager::Node> nodes = {{-1, 0, 0}, {-1, 1, 1}};
  std::map<std::tuple<int, Ref, Ref>, Ref> unique;

  Ref make_node(int var, Ref low, Ref high) {
    if (low == high) return low;
    const auto [it, fresh] = unique.try_emplace(
        {var, low, high}, static_cast<Ref>(nodes.size()));
    if (fresh) nodes.push_back({var, low, high});
    return it->second;
  }
  Ref build(const TruthTable& tt, std::uint64_t lo, std::uint64_t hi,
            int var) {
    if (var < 0) return tt.get(lo) ? 1 : 0;
    const std::uint64_t mid = lo + ((hi - lo) >> 1);
    const Ref l = build(tt, lo, mid, var - 1);
    const Ref h = build(tt, mid, hi, var - 1);
    return make_node(var, l, h);
  }
  std::size_t size(Ref f) const {
    std::set<Ref> seen;
    std::vector<Ref> stack = {f};
    while (!stack.empty()) {
      const Ref r = stack.back();
      stack.pop_back();
      if (r <= 1 || !seen.insert(r).second) continue;
      stack.push_back(nodes[r].low);
      stack.push_back(nodes[r].high);
    }
    return seen.size();
  }
};

// The word-level builder skips only make_node calls that hit the unique
// table, so it leaves the same node list, in the same order, with the same
// roots and sizes, including across builds that share one manager.
TEST(Bdd, FromTruthTableMatchesMintermBuilder) {
  std::mt19937_64 rng(11);
  for (int n = 0; n <= 12; ++n) {
    BddManager mgr(n);
    MintermBuilder ref;
    const auto check = [&](const TruthTable& tt, const char* kind) {
      const auto got = mgr.from_truth_table(tt);
      const auto want = ref.build(tt, 0, tt.size(), n - 1);
      ASSERT_EQ(got, want) << kind << " n=" << n;
      ASSERT_EQ(mgr.table_size(), ref.nodes.size()) << kind << " n=" << n;
      for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
        const auto& a = mgr.node(static_cast<BddManager::Ref>(i));
        ASSERT_EQ(a.var, ref.nodes[i].var) << kind << " node " << i;
        ASSERT_EQ(a.low, ref.nodes[i].low) << kind << " node " << i;
        ASSERT_EQ(a.high, ref.nodes[i].high) << kind << " node " << i;
      }
      EXPECT_EQ(mgr.size(got), ref.size(want)) << kind << " n=" << n;
      EXPECT_TRUE(mgr.to_truth_table(got) == tt) << kind << " n=" << n;
    };
    TruthTable random(n), parity(n), majority(n), sparse(n);
    // `sparse` reads only some variables: long runs of equal halves.
    const std::uint64_t used = rng() & ((1ULL << n) - 1);
    for (std::uint64_t m = 0; m < random.size(); ++m) {
      const int ones = std::popcount(m);
      random.set(m, rng() & 1);
      parity.set(m, ones % 2 == 1);
      majority.set(m, 2 * ones > n);
      sparse.set(m, std::popcount((m & used) * 0x9E3779B97F4A7C15ULL) % 2);
    }
    check(TruthTable::constant(false, n), "const0");
    check(TruthTable::constant(true, n), "const1");
    check(random, "random");
    check(parity, "parity");
    check(majority, "majority");
    check(sparse, "sparse");
    check(~random, "~random");
    check(random, "random again");
  }
}

}  // namespace
}  // namespace cim::eda
