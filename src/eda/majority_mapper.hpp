/// \file majority_mapper.hpp
/// \brief Technology mapping onto ReVAMP-style in-array majority logic
///        (Section IV.A/IV.C, refs [35], [67], [68]).
///
/// Device primitive (Section IV.A):  NS_x = MAJ3(S_x, V_wl, !V_bl) — the
/// stored state is the third input; the wordline voltage is shared by every
/// cell of a row, the bitline voltage is per-column.
///
/// The mapper schedules an MIG level by level, one crossbar row per level,
/// one column per node:
///   - READ step: latch the previous levels' values into the instruction
///     register (one step per producer row read);
///   - INIT step: reset the level's row and write each node's *preloaded*
///     fanin through the per-column bitlines (V_wl = 1 writes any word into
///     a zeroed row: MAJ(0, 1, b) = b) — 2 steps;
///   - MAJ steps: apply the remaining two fanins; since V_wl is shared, the
///     nodes of the level are greedily grouped by a common fanin literal,
///     one apply step per group (the shared literal rides V_wl, the
///     per-node literal rides the bitlines).
/// With unconstrained devices and single-group levels this approaches the
/// delay-optimal "MIG levels + 1" result of [67], which is also reported.
/// assemble_revamp (revamp_isa.hpp) lowers a schedule into the instruction
/// stream that execute_revamp_program runs and `verify::check_program`
/// (eda/verify/wear_cost.hpp) checks against the MIG on every input
/// assignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eda/mig.hpp"

namespace cim::eda {

/// Per-node placement and operand roles.
struct MajNodePlan {
  std::uint32_t node = 0;       ///< MIG node id
  std::size_t level = 0;        ///< 1-based MIG level
  std::size_t row = 0;          ///< crossbar row assigned to the level
  std::size_t col = 0;          ///< column within the level's row
  Mig::Lit preload = 0;         ///< fanin written at INIT
  Mig::Lit shared = 0;          ///< fanin applied via V_wl (group key)
  Mig::Lit per_column = 0;      ///< fanin applied via the bitline
};

/// A compiled ReVAMP schedule.
struct MajSchedule {
  std::size_t num_levels = 0;
  std::size_t device_count = 0;     ///< total cells across level rows
  std::size_t rows = 0;             ///< crossbar rows used
  std::size_t max_row_width = 0;
  std::size_t read_steps = 0;
  std::size_t init_steps = 0;
  std::size_t maj_steps = 0;        ///< apply groups across all levels
  std::vector<MajNodePlan> plan;

  std::size_t delay() const { return read_steps + init_steps + maj_steps; }
  /// The unconstrained-device lower bound of [67].
  std::size_t delay_lower_bound() const { return num_levels + 1; }
};

/// Schedules an MIG (greedy shared-fanin grouping per level).
MajSchedule schedule_revamp(const Mig& mig);

}  // namespace cim::eda
