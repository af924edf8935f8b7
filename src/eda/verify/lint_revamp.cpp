/// \file lint_revamp.cpp
/// \brief Static verification of ReVAMP instruction streams.
///
/// The ReVAMP machine has two hazards the other families lack: the DMR
/// register file (an Apply operand may only draw from a wordline that a
/// READ latched — and latched *after* the row's last write), and the shared
/// wordline driver (an Apply's majority step depends on the stored state S,
/// so the first write into a cell must be state-independent: the RESET
/// idiom wl=0 / bl=1, or the forced-SET wl=1 / bl=0). Both are checked with
/// a per-cell abstract state plus a per-row latch/write version clock.
#include <algorithm>
#include <sstream>

#include "eda/verify/cell_state.hpp"
#include "eda/verify/verify.hpp"

namespace cim::eda::verify {
namespace {

/// Statically resolved operand value: 0, 1, or dynamic (-1).
int static_value(const RevampOperand& op) {
  if (op.src == RevampOperand::Src::kConst0) return op.complemented ? 1 : 0;
  if (op.src == RevampOperand::Src::kConst1) return op.complemented ? 0 : 1;
  return -1;
}

}  // namespace

VerifyReport lint_revamp(const RevampProgram& prog,
                         const VerifyOptions& opts) {
  VerifyReport rep;
  const std::size_t W = prog.wordlines;
  const std::size_t B = prog.bitlines;
  rep.cells_tracked = W * B;

  auto diag = [&rep](Severity sev, Rule rule, std::size_t instr,
                     std::size_t cell, std::string msg) {
    rep.diagnostics.push_back({sev, rule, instr, cell, std::move(msg)});
  };

  if (opts.geometry &&
      (opts.geometry->rows < W || opts.geometry->cols < B)) {
    std::ostringstream os;
    os << "program footprint " << W << "x" << B
       << " exceeds crossbar geometry " << opts.geometry->rows << "x"
       << opts.geometry->cols;
    diag(Severity::kError, Rule::kOobCell, kNoInstr, kNoCell, os.str());
  }

  CellTable cells(W * B);
  auto flat = [B](std::size_t r, std::size_t c) { return r * B + c; };

  // Per-row latch bookkeeping: which write generation a READ captured, and
  // which columns held initialized values at that point.
  struct RowLatch {
    bool latched = false;
    std::size_t at_version = 0;
    std::vector<char> valid;
  };
  std::vector<RowLatch> latches(W);
  std::vector<std::size_t> write_version(W, 0);

  // Validates one operand read (Apply wl/bl or an output tap).
  auto check_operand = [&](std::size_t i, const RevampOperand& op,
                           bool is_output, std::size_t k) {
    switch (op.src) {
      case RevampOperand::Src::kConst0:
      case RevampOperand::Src::kConst1:
        return;
      case RevampOperand::Src::kInput:
        if (op.input_index >= prog.num_inputs) {
          std::ostringstream os;
          os << (is_output ? "output " + std::to_string(k) : "operand")
             << " reads PIR bit " << op.input_index << " but the program has "
             << prog.num_inputs << " inputs";
          diag(Severity::kError, Rule::kOobCell, i, kNoCell, os.str());
        }
        return;
      case RevampOperand::Src::kDmr: {
        if (op.dmr_row >= W || op.dmr_col >= B) {
          std::ostringstream os;
          os << "DMR reference r" << op.dmr_row << ",c" << op.dmr_col
             << " outside the " << W << "x" << B << " program footprint";
          diag(Severity::kError, Rule::kOobCell, i, kNoCell, os.str());
          return;
        }
        const auto& latch = latches[op.dmr_row];
        if (!latch.latched) {
          std::ostringstream os;
          os << (is_output ? "output " + std::to_string(k) : "operand")
             << " reads DMR row " << op.dmr_row
             << " that no READ ever latched";
          diag(Severity::kError, Rule::kDmrNotLatched, i,
               flat(op.dmr_row, op.dmr_col), os.str());
          return;
        }
        if (latch.at_version != write_version[op.dmr_row]) {
          std::ostringstream os;
          os << (is_output ? "output " + std::to_string(k) : "operand")
             << " reads DMR row " << op.dmr_row
             << " latched before the row's last write — stale latch";
          diag(Severity::kError, Rule::kDmrNotLatched, i,
               flat(op.dmr_row, op.dmr_col), os.str());
          return;
        }
        if (!latch.valid[op.dmr_col]) {
          std::ostringstream os;
          os << (is_output ? "output " + std::to_string(k) : "operand")
             << " reads DMR word column " << op.dmr_col
             << " latched from a cell no Apply ever drove";
          diag(Severity::kError,
               is_output ? Rule::kOutputUnreachable : Rule::kUseBeforeInit, i,
               flat(op.dmr_row, op.dmr_col), os.str());
        }
        return;
      }
    }
  };

  // --- the abstract walk: one in-place sweep of the branch-free program ---
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    const auto& ins = prog.instrs[i];
    if (ins.wordline >= W) {
      std::ostringstream os;
      os << (ins.kind == RevampInstruction::Kind::kRead ? "READ" : "APPLY")
         << " addresses wordline " << ins.wordline << " of " << W;
      diag(Severity::kError, Rule::kOobCell, i, kNoCell, os.str());
      continue;
    }

    if (ins.kind == RevampInstruction::Kind::kRead) {
      auto& latch = latches[ins.wordline];
      latch.latched = true;
      latch.at_version = write_version[ins.wordline];
      latch.valid.assign(B, 0);
      for (std::size_t c = 0; c < B; ++c)
        latch.valid[c] =
            cells[flat(ins.wordline, c)].state != CellState::kUnknown;
      continue;
    }

    // kApply.
    check_operand(i, ins.wl, false, 0);
    if (ins.columns.size() > B)
      diag(Severity::kError, Rule::kOobCell, i, kNoCell,
           "bitline vector wider than the program's " + std::to_string(B) +
               " bitlines");
    const int wl_static = static_value(ins.wl);
    bool wrote = false;
    for (std::size_t c = 0; c < std::min(ins.columns.size(), B); ++c) {
      if (!ins.columns[c]) continue;
      const auto& blop = *ins.columns[c];
      check_operand(i, blop, false, 0);
      const int bl_static = static_value(blop);
      auto& cell = cells[flat(ins.wordline, c)];
      // NS = MAJ3(S, wl, !bl): with both drivers static the next state is
      // forced (wl == !bl) or a no-op (wl == bl); with any dynamic driver
      // the result depends on S, so S must be initialized.
      if (wl_static >= 0 && bl_static >= 0) {
        if (wl_static == 1 - bl_static) {
          cell.state = wl_static ? CellState::kSet : CellState::kReset;
        }
        // wl == bl: MAJ(S, v, !v) = S — keeps the cell's state.
      } else {
        if (cell.state == CellState::kUnknown) {
          std::ostringstream os;
          os << "APPLY majority at r" << ins.wordline << ",c" << c
             << " depends on uninitialized device state (no RESET idiom ran)";
          diag(Severity::kError, Rule::kUseBeforeInit, i,
               flat(ins.wordline, c), os.str());
        }
        cell.state = CellState::kDriven;
      }
      wrote = true;
    }
    if (wrote) ++write_version[ins.wordline];
  }

  // --- output taps ----------------------------------------------------------
  for (std::size_t k = 0; k < prog.outputs.size(); ++k)
    check_operand(kNoInstr, prog.outputs[k], true, k);

  return rep;
}

}  // namespace cim::eda::verify
