/// CellTable (eda/verify/cell_state.hpp), the linters' per-cell state: its
/// per-node index of resident cells must kill exactly the cells a full scan
/// would.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "eda/verify/cell_state.hpp"

namespace cim::eda::verify {
namespace {

// CellTable's node index against a twin that scans every cell, as
// kill_node did before the index: random resident-node writes (indexed
// nodes, nodes past the index, kNoNode, and a direct kNoNode write), state
// writes and kills must leave both tables equal.
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

}  // namespace
}  // namespace cim::eda::verify
