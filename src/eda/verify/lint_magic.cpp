/// \file lint_magic.cpp
/// \brief Static dataflow verification of compiled single-row MAGIC
///        programs.
///
/// MAGIC's contract is strict: a NOR conditionally RESETs its output cell,
/// so the cell must be unconditionally SET immediately before — writing over
/// a previous result without the re-SET is the classic mapper bug this
/// linter's write-after-write rule exists for. When the NOR-only source
/// netlist is supplied the analysis additionally re-derives the mapper's
/// constant folding and fanout death points, proving the CONTRA-style cell
/// recycling never retires a value that still has consumers.
#include <algorithm>
#include <sstream>

#include "eda/verify/cell_state.hpp"
#include "eda/verify/verify.hpp"

namespace cim::eda::verify {

VerifyReport lint_magic(const MagicProgram& prog, const Netlist* source,
                        const VerifyOptions& opts) {
  VerifyReport rep;
  const std::size_t n_cells = prog.num_cells;
  rep.cells_tracked = n_cells;

  auto diag = [&rep](Severity sev, Rule rule, std::size_t instr,
                     std::size_t cell, std::string msg) {
    rep.diagnostics.push_back({sev, rule, instr, cell, std::move(msg)});
  };

  // --- footprint vs. target geometry ----------------------------------------
  if (opts.geometry &&
      (opts.geometry->cols < n_cells || opts.geometry->rows < 1)) {
    std::ostringstream os;
    os << "program footprint 1x" << n_cells << " exceeds crossbar geometry "
       << opts.geometry->rows << "x" << opts.geometry->cols;
    diag(Severity::kError, Rule::kOobCell, kNoInstr, kNoCell, os.str());
  }
  if (prog.num_inputs > n_cells)
    diag(Severity::kError, Rule::kOobCell, kNoInstr, kNoCell,
         "more inputs than cells in the program footprint");

  const bool live = source != nullptr;
  CellTable cells(n_cells, live ? source->num_nodes() : 0);
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n_cells); ++i)
    cells[i].state = CellState::kDriven;

  // --- source-netlist analysis: const folding + fanout counts ---------------
  std::vector<int> const_value;          // -1: not a constant
  std::vector<std::size_t> remaining;    // fanout counts per node
  std::vector<char> consumed;            // gates whose fanins were consumed
  std::size_t gate_cursor = 0;           // netlist position the walk reached
  if (live) {
    const auto n_nodes = source->num_nodes();
    const_value.assign(n_nodes, -1);
    remaining.assign(n_nodes, 0);
    consumed.assign(n_nodes, 0);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const Gate g = source->gate(i);
      for (const auto f : g.fanins) ++remaining[f];
      // Mirror compile_magic's folding: a const-1 fanin forces 0; a NOR
      // whose non-const fanins all vanished evaluates to 1.
      if (g.type == GateType::kConst0) {
        const_value[i] = 0;
      } else if (g.type == GateType::kConst1) {
        const_value[i] = 1;
      } else if (g.type == GateType::kNor) {
        bool forced_zero = false;
        bool any_dynamic = false;
        for (const auto f : g.fanins) {
          if (const_value[f] == 1) forced_zero = true;
          else if (const_value[f] != 0) any_dynamic = true;
        }
        if (forced_zero) const_value[i] = 0;
        else if (!any_dynamic) const_value[i] = 1;
      }
    }
    for (const auto o : source->outputs()) ++remaining[o];
    std::size_t k = 0;
    for (const auto in : source->inputs()) {
      if (k < n_cells) cells.set_node(k, in);
      ++k;
    }
  }

  auto consume_gate = [&](std::size_t g) {
    if (consumed[g]) return;
    consumed[g] = 1;
    for (const auto f : source->gate(g).fanins) {
      if (remaining[f] > 0) --remaining[f];
      if (remaining[f] == 0 && const_value[f] < 0)
        cells.kill_node(f, prog.num_inputs);  // fanout death point
    }
  };

  // Consumes the const-folded NOR gates the mapper processed (and released
  // the fanins of) without emitting instructions, up to netlist position `g`.
  auto advance_to = [&](std::size_t g) {
    for (; gate_cursor < std::min(g, source->num_nodes()); ++gate_cursor) {
      if (source->gate(gate_cursor).type == GateType::kNor &&
          const_value[gate_cursor] >= 0)
        consume_gate(gate_cursor);
    }
  };

  // --- the abstract walk: one in-place sweep of the branch-free program ---
  std::vector<std::size_t> resident_nodes;  // per NOR: nodes its cells hold
  std::vector<std::size_t> expected;        // per NOR: its live fanins
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    const auto& ins = prog.instrs[i];
    if (live && ins.node < source->num_nodes()) advance_to(ins.node);

    if (ins.out_cell >= n_cells) {
      diag(Severity::kError, Rule::kOobCell, i, ins.out_cell,
           std::string(ins.kind == MagicInstr::Kind::kSet ? "SET" : "NOR") +
               " drives a cell outside the program footprint");
      continue;
    }
    auto& out = cells[ins.out_cell];

    if (ins.kind == MagicInstr::Kind::kSet) {
      if (live && out.node != kNoNode && out.node < remaining.size() &&
          out.state == CellState::kDriven && remaining[out.node] > 0) {
        std::ostringstream os;
        os << "SET recycles cell " << ins.out_cell << " while node "
           << out.node << " still has " << remaining[out.node]
           << " live fanout(s) — premature recycle";
        diag(Severity::kError, Rule::kDeadCellRead, i, ins.out_cell, os.str());
      }
      out.state = CellState::kSet;
      cells.set_node(ins.out_cell, kNoNode);
      continue;
    }

    // kNor: read every input cell.
    resident_nodes.clear();
    for (const auto c : ins.in_cells) {
      if (c >= n_cells) {
        diag(Severity::kError, Rule::kOobCell, i, c,
             "NOR reads a cell outside the program footprint");
        continue;
      }
      const auto& ci = cells[c];
      if (ci.state == CellState::kUnknown) {
        diag(Severity::kError, Rule::kUseBeforeInit, i, c,
             "NOR reads cell " + std::to_string(c) +
                 " that no micro-op ever initialized");
      } else if (ci.state == CellState::kDead) {
        std::ostringstream os;
        os << "NOR reads cell " << c << " after its resident value (node "
           << ci.node << ") exhausted all fanouts — recycled under reuse";
        diag(Severity::kError, Rule::kDeadCellRead, i, c, os.str());
      } else if (ci.node != kNoNode) {
        resident_nodes.push_back(ci.node);
      }
    }

    // Residency check: the cells read must hold exactly the gate's live
    // (non-constant) fanins — anything else is a stale value.
    if (live && ins.node < source->num_nodes()) {
      expected.clear();
      for (const auto f : source->gate(ins.node).fanins)
        if (const_value[f] < 0) expected.push_back(f);
      for (const auto rn : resident_nodes) {
        const auto it = std::find(expected.begin(), expected.end(), rn);
        if (it != expected.end()) {
          expected.erase(it);
          continue;
        }
        std::ostringstream os;
        os << "NOR for node " << ins.node << " reads a cell holding node "
           << rn << ", not one of its fanins — stale value";
        diag(Severity::kError, Rule::kDeadCellRead, i, kNoCell, os.str());
      }
    }

    // Output-cell discipline: must be freshly SET.
    switch (out.state) {
      case CellState::kSet:
        break;  // the one legal state
      case CellState::kUnknown:
        diag(Severity::kError, Rule::kUseBeforeInit, i, ins.out_cell,
             "NOR drives cell " + std::to_string(ins.out_cell) +
                 " that was never SET");
        break;
      default:
        diag(Severity::kError, Rule::kWriteAfterWrite, i, ins.out_cell,
             "NOR drives cell " + std::to_string(ins.out_cell) +
                 " without an intervening SET (state: " +
                 std::string(cell_state_name(out.state)) + ")");
        break;
    }
    out.state = CellState::kDriven;
    cells.set_node(ins.out_cell, ins.node);

    if (live && ins.node < source->num_nodes()) {
      consume_gate(ins.node);
      gate_cursor = std::max(gate_cursor, ins.node + 1);
    }
  }
  if (live) advance_to(source->num_nodes());

  // --- output-cell reachability ---------------------------------------------
  if (live && prog.output_cells.size() != source->outputs().size())
    diag(Severity::kError, Rule::kOutputUnreachable, kNoInstr, kNoCell,
         "program output count differs from the source netlist's");
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    const bool is_const =
        k < prog.output_is_const.size() && prog.output_is_const[k];
    if (is_const) continue;  // resolved statically, no cell to check
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
      const std::size_t want = source->outputs()[k];
      if (const_value[want] < 0 && ci.node != kNoNode && ci.node != want) {
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
