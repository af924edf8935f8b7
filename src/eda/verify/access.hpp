/// \file access.hpp
/// \brief Static per-program resource access sets (`cim::eda::verify`).
///
/// The cross-tile hazard analyzer (hazard.hpp) and the wear & cost
/// certifier (wear_cost.hpp) both need the same summary of a compiled
/// micro-op program: which cells of its footprint it reads and writes, how
/// many times each cell is written per execution (an upper bound that
/// includes the executor's input-launch writes), which columns it senses
/// through the column-muxed ADC, and which wordlines its drivers occupy.
///
/// Each family's one interpreter (the cost walk in wear_cost.cpp) records
/// these sets in the same pass that charges the cost, when its caller keeps
/// them: `check_program` and `access_of` do, so a program check walks each
/// program once after its linter. The sets mirror the executors exactly:
///
///  - IMPLY  (`execute_imply`):  inputs are materialized with `write_bit`
///    before the first micro-op; FALSE/IMPLY write their destination;
///    IMPLY's operand reads are internal (uncharged `bit_of`, no ADC);
///    each output cell is sensed once with `read_bit`.
///  - MAGIC  (`execute_magic`):  same launch discipline; SET/NOR write the
///    output cell, NOR reads its input cells internally; non-constant
///    outputs are sensed with `read_bit`.
///  - ReVAMP (`execute_revamp_program`): no launch writes (inputs live in
///    the PIR register). READ senses all B columns of a wordline through
///    the ADC to latch the DMR; APPLY performs one `majority_write` per
///    active column. Output taps draw from DMR/PIR/constants — no array
///    access.
///
/// Counts are per single program execution; a scheduler running the program
/// N times scales `write_bound` by N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/revamp_isa.hpp"

namespace cim::eda::verify {

/// Static access summary of one compiled program over its local footprint
/// (rows x cols, flat index r * cols + c). Row/column indices are relative
/// to the program's placement origin.
struct ProgramAccess {
  std::size_t rows = 1;  ///< footprint height (1 for IMPLY/MAGIC rows)
  std::size_t cols = 0;  ///< footprint width in cells

  /// Upper bound on writes per cell per execution, input-launch writes
  /// included. Conditional logic-op writes (IMPLY on a set destination,
  /// MAGIC NOR that does not fire) count as full writes — the bound must
  /// dominate every data-dependent trace.
  std::vector<std::uint32_t> write_bound;
  std::vector<char> read;     ///< per-cell: some micro-op reads it
  std::vector<char> written;  ///< per-cell: some write (launch or op) hits it

  std::vector<std::uint32_t> sensed_cols;  ///< per-column ADC sample count
  std::vector<char> driven_rows;           ///< per-row: wordline driver engaged

  std::size_t total_writes = 0;  ///< sum of `write_bound`
  std::size_t sensed_reads = 0;  ///< charged `read_bit` events per execution

  std::size_t flat(std::size_t r, std::size_t c) const { return r * cols + c; }
  std::size_t max_write_bound() const;

  /// An empty footprint of rows x cols cells.
  static ProgramAccess footprint(std::size_t rows, std::size_t cols);
  /// One write of `cell`; a cell past the footprint is left to the linters.
  void bump_write(std::size_t cell);
  /// An internal operand read of `cell` (no ADC charge, still a dependence).
  void mark_read(std::size_t cell);
  /// One charged `read_bit` of `cell` through its column's ADC.
  void sense(std::size_t cell);
};

/// Access summary of a compiled IMPLY program (single row). The three
/// overloads run their family's walk (defined in wear_cost.cpp).
ProgramAccess access_of(const ImplyProgram& prog);

/// Access summary of a compiled MAGIC program (single row).
ProgramAccess access_of(const MagicProgram& prog);

/// Access summary of a ReVAMP instruction stream (wordlines x bitlines).
ProgramAccess access_of(const RevampProgram& prog);

}  // namespace cim::eda::verify
