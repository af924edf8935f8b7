/// Fixpoint dataflow engine (eda/verify/dataflow.hpp): lattice join laws,
/// the straight-line driver, and the general worklist engine on DAGs and
/// cyclic graphs — the substrate the per-family linters run on.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "eda/verify/dataflow.hpp"

namespace cim::eda::verify {
namespace {

TEST(CellStateJoin, EqualStatesJoinToThemselves) {
  for (const auto s : {CellState::kUnknown, CellState::kSet, CellState::kReset,
                       CellState::kDriven, CellState::kDead})
    EXPECT_EQ(join_cell_state(s, s), s);
}

TEST(CellStateJoin, UnknownAbsorbsEverything) {
  for (const auto s : {CellState::kSet, CellState::kReset, CellState::kDriven,
                       CellState::kDead}) {
    EXPECT_EQ(join_cell_state(CellState::kUnknown, s), CellState::kUnknown);
    EXPECT_EQ(join_cell_state(s, CellState::kUnknown), CellState::kUnknown);
  }
}

TEST(CellStateJoin, DeadAbsorbsReadableStates) {
  for (const auto s :
       {CellState::kSet, CellState::kReset, CellState::kDriven}) {
    EXPECT_EQ(join_cell_state(CellState::kDead, s), CellState::kDead);
    EXPECT_EQ(join_cell_state(s, CellState::kDead), CellState::kDead);
  }
}

TEST(CellStateJoin, MixedReadableStatesJoinToDriven) {
  EXPECT_EQ(join_cell_state(CellState::kSet, CellState::kReset),
            CellState::kDriven);
  EXPECT_EQ(join_cell_state(CellState::kSet, CellState::kDriven),
            CellState::kDriven);
  EXPECT_EQ(join_cell_state(CellState::kReset, CellState::kDriven),
            CellState::kDriven);
}

TEST(CellStateJoin, JoinIsCommutative) {
  const CellState all[] = {CellState::kUnknown, CellState::kSet,
                           CellState::kReset, CellState::kDriven,
                           CellState::kDead};
  for (const auto a : all)
    for (const auto b : all)
      EXPECT_EQ(join_cell_state(a, b), join_cell_state(b, a));
}

TEST(CellJoin, WriteCountersTakeTheMaxAndDisagreeingNodesDrop) {
  CellInfo a;
  a.state = CellState::kDriven;
  a.node = 3;
  a.writes = 2;
  CellInfo b;
  b.state = CellState::kDriven;
  b.node = 5;
  b.writes = 7;
  EXPECT_TRUE(join_cell(a, b));
  EXPECT_EQ(a.writes, 7u);       // upper bound over either path
  EXPECT_EQ(a.node, kNoNode);    // resident node kept only on agreement
  // Joining an identical state is a no-op.
  CellInfo c = a;
  EXPECT_FALSE(join_cell(a, c));
}

// CellTable's node index against a twin that scans every cell, as
// kill_node did before the index: random resident-node writes (indexed
// nodes, nodes past the index, kNoNode, and join_cell's direct kNoNode
// write), state writes and kills must leave both tables equal.
TEST(CellTableIndex, KillNodeMatchesFullScan) {
  constexpr std::size_t kCells = 12, kNodes = 8;
  std::mt19937_64 rng(5);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto any_node = [&]() -> std::size_t {
    switch (pick(4)) {
      case 0: return kNoNode;
      case 1: return kNodes + pick(4);  // past the index
      default: return pick(kNodes);
    }
  };
  for (int run = 0; run < 50; ++run) {
    CellTable indexed(kCells, kNodes);
    std::vector<CellInfo> twin(kCells);
    for (int op = 0; op < 400; ++op) {
      const std::size_t c = pick(kCells);
      switch (pick(5)) {
        case 0:
        case 1: {
          const std::size_t node = any_node();
          indexed.set_node(c, node);
          twin[c].node = node;
          break;
        }
        case 2: {
          const auto state = static_cast<CellState>(pick(5));
          indexed[c].state = state;
          twin[c].state = state;
          break;
        }
        case 3:
          indexed[c].node = kNoNode;
          twin[c].node = kNoNode;
          break;
        default: {
          const std::size_t node = any_node(), first = pick(kCells + 1);
          indexed.kill_node(node, first);
          for (std::size_t k = first; k < kCells; ++k)
            if (twin[k].node == node && twin[k].state != CellState::kUnknown)
              twin[k].state = CellState::kDead;
          break;
        }
      }
      for (std::size_t k = 0; k < kCells; ++k) {
        ASSERT_EQ(indexed[k].state, twin[k].state) << "run " << run
                                                   << " op " << op;
        ASSERT_EQ(indexed[k].node, twin[k].node) << "run " << run
                                                 << " op " << op;
      }
    }
  }
}

TEST(StraightLine, VisitsEveryInstructionInOrderInPlace) {
  std::vector<std::size_t> order;
  std::size_t acc = 0;
  run_straight_line(5, acc, [&](std::size_t& s, std::size_t i) {
    order.push_back(i);
    s += i;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(acc, 0u + 1 + 2 + 3 + 4);
}

// Integer max-lattice join for the scalar-state engine tests.
bool join_max(std::size_t& into, const std::size_t& other) {
  if (other > into) {
    into = other;
    return true;
  }
  return false;
}

TEST(Fixpoint, ForwardDagFiresEveryTransferExactlyOnce) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 (diamond). Transfer adds the node id; the join
  // takes the max, so node 3 sees max(in1, in2) + 3.
  const std::vector<std::vector<std::size_t>> succs{{1, 2}, {3}, {3}, {}};
  const auto res = run_fixpoint<std::size_t>(
      4, succs, 0,
      [](const std::size_t& in, std::size_t n) { return in + n; }, join_max);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.transfers, 4u);  // index order: each node exactly once
  EXPECT_EQ(res.out[0], 0u);
  EXPECT_EQ(res.out[1], 1u);
  EXPECT_EQ(res.out[2], 2u);
  EXPECT_EQ(res.in[3], 2u);   // join of out[1]=1 and out[2]=2
  EXPECT_EQ(res.out[3], 5u);
}

TEST(Fixpoint, CycleIteratesToConvergence) {
  // 0 -> 1 <-> 2 with a saturating transfer: state climbs to a cap, then
  // stabilizes — the loop must terminate with converged = true.
  const std::vector<std::vector<std::size_t>> succs{{1}, {2}, {1}};
  constexpr std::size_t kCap = 10;
  const auto res = run_fixpoint<std::size_t>(
      3, succs, 0,
      [](const std::size_t& in, std::size_t) {
        return in < kCap ? in + 1 : in;
      },
      join_max);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.out[1], kCap);
  EXPECT_EQ(res.out[2], kCap);
  EXPECT_GT(res.transfers, 3u);  // the cycle re-fired its members
}

TEST(Fixpoint, DivergenceCapReportsNonConvergence) {
  // 0 <-> 1 with an ever-growing transfer never stabilizes; the cap must
  // stop it and report converged = false.
  const std::vector<std::vector<std::size_t>> succs{{1}, {0}};
  const auto res = run_fixpoint<std::size_t>(
      2, succs, 0,
      [](const std::size_t& in, std::size_t) { return in + 1; }, join_max,
      /*max_transfers=*/16);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.transfers, 16u);
}

TEST(Fixpoint, EmptyGraphConvergesTrivially) {
  const auto res = run_fixpoint<std::size_t>(
      0, {}, 0, [](const std::size_t& in, std::size_t) { return in; },
      join_max);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.transfers, 0u);
}

TEST(Fixpoint, CellTableStateJoinsAtMergePoints) {
  // Two branches drive cell 0 to different states; the merge node must see
  // the lattice join (Set vs Reset -> Driven), not either branch's value.
  const std::vector<std::vector<std::size_t>> succs{{1, 2}, {3}, {3}, {}};
  CellTable entry(1);
  const auto res = run_fixpoint<CellTable>(
      4, succs, entry,
      [](const CellTable& in, std::size_t n) {
        CellTable out = in;
        if (n == 1) out[0].state = CellState::kSet;
        if (n == 2) out[0].state = CellState::kReset;
        return out;
      },
      [](CellTable& into, const CellTable& other) {
        return join_cells(into, other);
      });
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.in[3][0].state, CellState::kDriven);
}

}  // namespace
}  // namespace cim::eda::verify
