/// \file magic_mapper.hpp
/// \brief Technology mapping onto MAGIC (Memristor-Aided loGIC) crossbars
///        (Section IV.A/IV.C, refs [70]-[73]).
///
/// MAGIC executes multi-input NOR (and NOT) in place: input devices hold
/// their states, the pre-SET output device is conditionally RESET. The
/// single-row mapper of Ben-Hur et al. [70] places the whole computation in
/// one row so it can run SIMD-style across many rows; delay equals the
/// number of SET+NOR steps, area the number of row cells. The
/// area-constrained variant (CONTRA-flavoured [73]) recycles cells whose
/// fanouts are exhausted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "eda/netlist.hpp"

namespace cim::eda {

/// One MAGIC-machine instruction on a row.
struct MagicInstr {
  enum class Kind { kSet, kNor };
  Kind kind = Kind::kSet;
  std::size_t out_cell = 0;
  std::vector<std::size_t> in_cells;  ///< kNor only
  /// IR introspection hook for the static verifier: the source-netlist node
  /// this instruction realizes (the SET preset and the NOR both carry the
  /// gate's id). SIZE_MAX when no source node is associated.
  std::size_t node = static_cast<std::size_t>(-1);
};

/// A compiled single-row MAGIC program.
struct MagicProgram {
  std::size_t num_inputs = 0;
  std::size_t num_cells = 0;  ///< row width used (area metric)
  std::vector<MagicInstr> instrs;
  std::vector<std::size_t> output_cells;
  std::vector<bool> output_is_const;  ///< constant outputs resolved statically
  std::vector<bool> const_values;

  std::size_t delay() const { return instrs.size(); }
  std::size_t nor_count() const;
};

/// Compiles a NOR-only netlist (see Netlist::to_nor_only). With
/// `reuse_cells` the mapper recycles dead cells (area-constrained mapping).
MagicProgram compile_magic(const Netlist& nor_netlist, bool reuse_cells = false);

/// Executes on row `row` of a crossbar for one assignment.
std::vector<bool> execute_magic(crossbar::Crossbar& xbar,
                                const MagicProgram& prog,
                                std::uint64_t assignment, std::size_t row = 0);

/// Exhaustive check against the netlist's truth tables: a word-level
/// SET/NOR interpreter runs 64 assignments per pass, each cell one
/// uint64_t. False for a malformed program (counts that differ from the
/// netlist, a cell past num_cells, or a NOR with no inputs).
bool verify_magic(const MagicProgram& prog, const Netlist& nor_netlist);

}  // namespace cim::eda
