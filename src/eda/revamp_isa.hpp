/// \file revamp_isa.hpp
/// \brief The ReVAMP instruction set (Section II.C, Bhattacharjee et al.,
///        DATE'17 [35]): a ReRAM-based VLIW machine with two instruction
///        formats — `Read` latches a crossbar wordline into the data memory
///        register (DMR), `Apply` drives the wordline and per-column
///        bitlines with values drawn from the primary input register (PIR),
///        the DMR or constants, executing one in-array majority step per
///        cell: NS = MAJ3(S, V_wl, !V_bl).
///
/// The assembler lowers a scheduled MIG (majority_mapper) into an explicit
/// instruction stream; the executor runs the stream on the crossbar
/// simulator, modelling the register file; the disassembler prints the
/// program the way an ISA listing would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"

namespace cim::eda {

/// Where an Apply operand's value comes from.
struct RevampOperand {
  enum class Src { kConst0, kConst1, kInput, kDmr };
  Src src = Src::kConst0;
  std::size_t input_index = 0;  ///< PIR bit (kInput)
  std::size_t dmr_row = 0;      ///< latched row (kDmr)
  std::size_t dmr_col = 0;      ///< column within the latched word (kDmr)
  bool complemented = false;    ///< driver inverts the value

  std::string to_string() const;
};

/// One ReVAMP instruction.
struct RevampInstruction {
  enum class Kind { kRead, kApply };
  Kind kind = Kind::kRead;
  std::size_t wordline = 0;
  /// kApply only: the shared wordline value.
  RevampOperand wl;
  /// kApply only: per-column bitline values (inactive columns disengaged).
  std::vector<std::optional<RevampOperand>> columns;
  /// IR introspection hook for the static verifier: the MIG nodes whose
  /// cells this Apply drives (RESET/PRELOAD list the level's nodes, a MAJ
  /// apply its group members). Empty for READ.
  std::vector<std::uint32_t> def_nodes;

  std::string to_string() const;
};

/// A complete ReVAMP program plus output bookkeeping.
struct RevampProgram {
  std::size_t wordlines = 0;
  std::size_t bitlines = 0;
  std::size_t num_inputs = 0;
  std::vector<RevampInstruction> instrs;
  /// Output taps: operands evaluated after the program ran.
  std::vector<RevampOperand> outputs;

  std::size_t read_count() const;
  std::size_t apply_count() const;
  std::string disassemble() const;
};

/// Lowers a scheduled MIG into a ReVAMP instruction stream. Throws
/// std::invalid_argument for a plan entry past the MIG's nodes or the
/// schedule's rows or row width.
RevampProgram assemble_revamp(const Mig& mig, const MajSchedule& sched);

/// Executes the program on a crossbar (sized >= wordlines x bitlines).
/// Throws std::invalid_argument for a smaller array, or for an input
/// operand past num_inputs or past bit 63 of `assignment`.
std::vector<bool> execute_revamp_program(crossbar::Crossbar& xbar,
                                         const RevampProgram& prog,
                                         std::uint64_t assignment);

}  // namespace cim::eda
