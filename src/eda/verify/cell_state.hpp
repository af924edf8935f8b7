/// \file cell_state.hpp
/// \brief The abstract cell-state lattice shared by the per-family static
///        analyses of `cim::eda::verify`.
///
/// Every crossbar cell touched by a compiled micro-op program is tracked
/// through a five-point abstract domain:
///
///     kUnknown  — power-on state; reading it is a use-before-init hazard
///     kSet      — unconditionally SET to logic 1 (MAGIC output preset)
///     kReset    — unconditionally RESET to logic 0 (IMPLY FALSE)
///     kDriven   — holds a computed value (result of NOR / IMPLY / MAJ)
///     kDead     — held a value whose source node has exhausted all of its
///                 fanouts; the allocator may recycle the cell, so reading
///                 it is a dead-cell-read hazard
///
/// The per-cell `node` field links the abstract state back to the source IR
/// node (AIG / netlist / MIG id) the resident value was computed from — the
/// introspection hook the mappers emit — enabling the verifier to re-derive
/// fanout death points independently of the allocator it is checking.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace cim::eda::verify {

/// Abstract state of one crossbar cell during the static walk.
enum class CellState { kUnknown, kSet, kReset, kDriven, kDead };

inline std::string_view cell_state_name(CellState s) {
  switch (s) {
    case CellState::kUnknown: return "unknown";
    case CellState::kSet: return "set";
    case CellState::kReset: return "reset";
    case CellState::kDriven: return "driven";
    case CellState::kDead: return "dead";
  }
  return "?";
}

/// Sentinel for "no source-IR node associated".
inline constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

/// Per-cell abstract record: lattice point and resident source node.
struct CellInfo {
  CellState state = CellState::kUnknown;
  std::size_t node = kNoNode;  ///< source IR node of the resident value

  bool readable() const {
    return state != CellState::kUnknown && state != CellState::kDead;
  }
};

/// Flat cell-state table with a node index: per source node below the
/// index size, the cells it was made resident in.
/// Every write of a `CellInfo::node` other than kNoNode goes through
/// `set_node`; a direct kNoNode write is safe.
class CellTable {
 public:
  explicit CellTable(std::size_t cells, std::size_t nodes = 0)
      : cells_(cells), head_(nodes, kEnd) {
    links_.reserve(nodes);  // a node is most often resident in one cell
  }

  CellInfo& operator[](std::size_t c) { return cells_[c]; }
  const CellInfo& operator[](std::size_t c) const { return cells_[c]; }
  std::size_t size() const { return cells_.size(); }

  /// Makes `node` the resident source node of `cell`.
  void set_node(std::size_t cell, std::size_t node) {
    if (node < head_.size() && cells_[cell].node != node) {
      links_.push_back({cell, head_[node]});
      head_[node] = links_.size() - 1;
    }
    cells_[cell].node = node;
  }

  /// Marks every cell at or past `first_protected_cell` whose resident
  /// value came from `node` as dead — the fanout death point of that node,
  /// re-derived by the verifier. Only the node's list is visited (its
  /// entries may since hold another node); an id past the index, kNoNode
  /// among them, has no list and checks every cell.
  void kill_node(std::size_t node, std::size_t first_protected_cell) {
    const auto kill = [&](std::size_t c) {
      auto& ci = cells_[c];
      if (c >= first_protected_cell && ci.node == node &&
          ci.state != CellState::kUnknown)
        ci.state = CellState::kDead;
    };
    if (node >= head_.size()) {
      for (std::size_t c = 0; c < cells_.size(); ++c) kill(c);
      return;
    }
    for (std::size_t l = head_[node]; l != kEnd; l = links_[l].next)
      kill(links_[l].cell);
  }

 private:
  static constexpr std::size_t kEnd = static_cast<std::size_t>(-1);
  struct Link {
    std::size_t cell, next;  ///< a cell, and the list's next (older) link
  };

  std::vector<CellInfo> cells_;
  std::vector<std::size_t> head_;  ///< per node: its newest link, or kEnd
  std::vector<Link> links_;        ///< every list's entries, oldest first
};

}  // namespace cim::eda::verify
