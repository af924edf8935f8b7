/// \file lint_imply.cpp
/// \brief Static dataflow verification of compiled IMPLY programs.
///
/// The walk mirrors the machine: FALSE resets a cell, IMPLY reads both its
/// destination and source and overwrites the destination. Liveness (when a
/// source AIG is supplied) is re-derived from scratch — fanout counts per
/// node, decremented at each AND completion exactly where compile_imply's
/// allocator consumes them — so a mapper that recycles a cell one micro-op
/// too early is caught without trusting any of its bookkeeping.
#include <algorithm>
#include <sstream>

#include "eda/verify/cell_state.hpp"
#include "eda/verify/verify.hpp"

namespace cim::eda::verify {
namespace {

std::string cell_desc(const ImplyProgram& prog, std::size_t c) {
  std::ostringstream os;
  if (c < prog.num_inputs)
    os << "input cell " << c;
  else if (c == prog.zero_cell)
    os << "zero cell " << c;
  else
    os << "work cell " << c;
  return os.str();
}

}  // namespace

VerifyReport lint_imply(const ImplyProgram& prog, const Aig* source,
                        const VerifyOptions& opts) {
  VerifyReport rep;
  const std::size_t n_cells = prog.num_cells;
  rep.cells_tracked = n_cells;

  auto diag = [&rep](Severity sev, Rule rule, std::size_t instr,
                     std::size_t cell, std::string msg) {
    rep.diagnostics.push_back({sev, rule, instr, cell, std::move(msg)});
  };

  // --- footprint vs. program header and target geometry ---------------------
  if (opts.geometry && (opts.geometry->cols < n_cells ||
                        opts.geometry->rows < 1)) {
    std::ostringstream os;
    os << "program footprint 1x" << n_cells << " exceeds crossbar geometry "
       << opts.geometry->rows << "x" << opts.geometry->cols;
    diag(Severity::kError, Rule::kOobCell, kNoInstr, kNoCell, os.str());
  }
  if (prog.zero_cell >= n_cells)
    diag(Severity::kError, Rule::kOobCell, kNoInstr, prog.zero_cell,
         "zero cell lies outside the program footprint");
  if (prog.num_inputs > n_cells)
    diag(Severity::kError, Rule::kOobCell, kNoInstr, kNoCell,
         "more inputs than cells in the program footprint");

  const bool live = source != nullptr;
  CellTable cells(n_cells, live ? source->num_nodes() : 0);
  // The executor materializes the assignment into the input cells before the
  // first micro-op, so they start Driven.
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n_cells); ++i)
    cells[i].state = CellState::kDriven;

  // --- liveness bookkeeping re-derived from the source AIG ------------------
  std::vector<std::size_t> uses;       // remaining fanouts per AIG node
  std::vector<char> consumed;          // AND nodes whose fanins were consumed
  if (live) {
    uses.assign(source->num_nodes(), 0);
    for (std::uint32_t i = 1; i < source->num_nodes(); ++i) {
      if (!source->is_and(i)) continue;
      const auto& nd = source->node(i);
      ++uses[Aig::node_of(nd.fanin0)];
      ++uses[Aig::node_of(nd.fanin1)];
    }
    for (const auto o : source->outputs()) ++uses[Aig::node_of(o)];
    consumed.assign(source->num_nodes(), 0);
    std::size_t k = 0;
    for (const auto in : source->input_nodes()) {
      if (k < n_cells) cells.set_node(k, in);
      ++k;
    }
  }

  // Consumes one fanout of `node`; at zero remaining fanouts every work cell
  // holding the node's value dies (the fanout death point, re-derived).
  auto consume_node = [&](std::uint32_t node) {
    if (node == 0) return;  // constants never die
    if (uses[node] > 0) --uses[node];
    if (uses[node] == 0) cells.kill_node(node, prog.zero_cell + 1);
  };

  auto check_read = [&](std::size_t i, std::size_t c) {
    if (c >= n_cells) {
      diag(Severity::kError, Rule::kOobCell, i, c,
           "IMPLY reads a cell outside the program footprint");
      return;
    }
    const auto& ci = cells[c];
    if (ci.state == CellState::kUnknown) {
      diag(Severity::kError, Rule::kUseBeforeInit, i, c,
           "IMPLY reads " + cell_desc(prog, c) +
               " that no FALSE/IMPLY ever initialized");
    } else if (ci.state == CellState::kDead) {
      std::ostringstream os;
      os << "IMPLY reads " << cell_desc(prog, c)
         << " after its resident value (node " << ci.node
         << ") exhausted all fanouts — cell recycled under reuse";
      diag(Severity::kError, Rule::kDeadCellRead, i, c, os.str());
    }
  };

  // Returns false when the write target is out of bounds.
  auto check_write = [&](std::size_t i, std::size_t c) {
    if (c >= n_cells) {
      diag(Severity::kError, Rule::kOobCell, i, c,
           "IMPLY writes a cell outside the program footprint");
      return false;
    }
    if (live) {
      const auto& ci = cells[c];
      if (ci.node != kNoNode && ci.node != 0 && ci.node < uses.size() &&
          ci.state == CellState::kDriven && uses[ci.node] > 0) {
        std::ostringstream os;
        os << "overwrites " << cell_desc(prog, c) << " while node " << ci.node
           << " still has " << uses[ci.node]
           << " live fanout(s) — premature recycle";
        diag(Severity::kError, Rule::kDeadCellRead, i, c, os.str());
      }
    }
    return true;
  };

  // --- the abstract walk: one in-place sweep of the branch-free program ---
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    const auto& ins = prog.instrs[i];
    if (ins.kind == ImplyInstr::Kind::kFalse) {
      if (check_write(i, ins.dest)) {
        cells[ins.dest].state = CellState::kReset;
        cells.set_node(ins.dest, kNoNode);
      }
    } else {
      check_read(i, ins.src);
      check_read(i, ins.dest);  // IMPLY is read-modify-write on dest
      if (check_write(i, ins.dest)) {
        cells[ins.dest].state = CellState::kDriven;
        cells.set_node(ins.dest, kNoNode);
      }
    }
    // Completion annotation: dest now holds def_node's value.
    if (ins.def_node != kNoNode && ins.dest < n_cells) {
      cells.set_node(ins.dest, ins.def_node);
      if (live && ins.def_node < source->num_nodes() &&
          source->is_and(static_cast<std::uint32_t>(ins.def_node)) &&
          !consumed[ins.def_node]) {
        consumed[ins.def_node] = 1;
        const auto& nd = source->node(static_cast<std::uint32_t>(ins.def_node));
        consume_node(Aig::node_of(nd.fanin0));
        consume_node(Aig::node_of(nd.fanin1));
      }
    }
  }

  // --- output-cell reachability ---------------------------------------------
  if (live && prog.output_cells.size() != source->outputs().size())
    diag(Severity::kError, Rule::kOutputUnreachable, kNoInstr, kNoCell,
         "program output count differs from the source AIG's");
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    const std::size_t c = prog.output_cells[k];
    if (c >= n_cells) {
      diag(Severity::kError, Rule::kOobCell, kNoInstr, c,
           "output " + std::to_string(k) +
               " taps a cell outside the program footprint");
      continue;
    }
    const auto& ci = cells[c];
    if (ci.state == CellState::kUnknown) {
      diag(Severity::kError, Rule::kOutputUnreachable, kNoInstr, c,
           "output " + std::to_string(k) +
               " is not dominated by any defining micro-op");
      continue;
    }
    if (ci.state == CellState::kDead) {
      diag(Severity::kError, Rule::kDeadCellRead, kNoInstr, c,
           "output " + std::to_string(k) + " taps a dead (recycled) cell");
      continue;
    }
    if (live && k < source->outputs().size()) {
      const std::uint32_t want = Aig::node_of(source->outputs()[k]);
      if (want != 0 && ci.node != kNoNode && ci.node != want) {
        std::ostringstream os;
        os << "output " << k << " taps a cell holding node " << ci.node
           << ", expected node " << want << " — stale value";
        diag(Severity::kError, Rule::kDeadCellRead, kNoInstr, c, os.str());
      }
    }
  }

  return rep;
}

}  // namespace cim::eda::verify
