/// \file imply_mapper.hpp
/// \brief Technology mapping onto material-implication (IMPLY) stateful
///        logic (Section IV.A/IV.C, refs [63]-[66]).
///
/// The paper's IMPLY convention: NS_p = S_p -> S_q — the *destination*
/// device p is overwritten with (p -> q) = !p | q. Together with the
/// unconditional FALSE (RESET) operation this is functionally complete.
/// Useful macros under this convention (z is a dedicated constant-0 cell):
///     TRUE(d)  : FALSE(d); IMPLY(d, z)          -- d = !0|0 = 1
///     COPY(x,d): TRUE(d); IMPLY(d, x)           -- d = !1|x = x
///     NOT(d)   : IMPLY(d, z)                    -- d = !d
///     AND(a,b,d): d = !(!a | !b) via COPY + IMPLY + NOT
/// The mapper compiles an AIG into a linear IMPLY program over one crossbar
/// row, optionally reusing work cells once their fanouts are consumed
/// (the two-working-memristor result [64] is the extreme of this reuse).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "eda/aig.hpp"

namespace cim::eda {

/// One IMPLY-machine instruction.
struct ImplyInstr {
  enum class Kind { kFalse, kImply };
  Kind kind = Kind::kFalse;
  std::size_t dest = 0;
  std::size_t src = 0;  ///< meaningful for kImply only
  /// IR introspection hook for the static verifier: the AIG node whose value
  /// this instruction *completes* in `dest` (the last micro-op of a COPY /
  /// NOT / AND macro sequence). SIZE_MAX on intermediate micro-ops. Node 0
  /// marks constant cells (the zero cell, the derived const-1 cell).
  std::size_t def_node = static_cast<std::size_t>(-1);
};

/// A compiled IMPLY program over cells of one row.
struct ImplyProgram {
  std::size_t num_inputs = 0;
  std::size_t zero_cell = 0;        ///< dedicated constant-0 cell
  std::size_t num_cells = 0;        ///< devices used (area metric)
  std::vector<ImplyInstr> instrs;   ///< delay metric = instrs.size()
  std::vector<std::size_t> output_cells;

  std::size_t delay() const { return instrs.size(); }
};

/// Compiles an AIG. With `reuse_cells`, work cells are recycled when all
/// fanouts of their node have been consumed (smaller area, same delay).
ImplyProgram compile_imply(const Aig& aig, bool reuse_cells = false);

/// Executes the program on row `row` of a crossbar for one input assignment
/// (bit i of `assignment` = input i); returns the output cell values.
std::vector<bool> execute_imply(crossbar::Crossbar& xbar,
                                const ImplyProgram& prog,
                                std::uint64_t assignment, std::size_t row = 0);

/// Exhaustive check against the AIG's truth tables: a word-level IMPLY/FALSE
/// interpreter runs 64 assignments per pass, each cell one uint64_t. False
/// for a malformed program (counts that differ from the AIG, or a cell past
/// num_cells).
bool verify_imply(const ImplyProgram& prog, const Aig& aig);

}  // namespace cim::eda
