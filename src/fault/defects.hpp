/// \file defects.hpp
/// \brief Physical defect to fault mapping (Section III.A, citing
///        Chaudhuri et al., ITC'18: process variations, oxide pinholes and
///        design-induced coupling in memristors).
///
/// A *defect* is a physical manufacturing flaw; a *fault* is its behavioural
/// consequence at the cell/array level. This module enumerates the defects
/// the paper discusses and expands each into the FaultDescriptors it causes:
///
///   oxide pinhole       -> low-resistance short        -> SA1 on the cell
///   over-forming        -> oversized filament          -> SA1-like (over-forming)
///   forming failure     -> filament never forms        -> SA0 on the cell
///   broken wordline     -> row floats beyond the break -> SA1 on the row tail
///                          ("a broken word-line ... leads to SA1 behavior")
///   broken bitline      -> column tail unreachable     -> SA0 on the col tail
///   decoder defect      -> wrong row selected          -> address-decoder fault
///   bridge (cell-cell)  -> neighbouring cells shorted  -> coupling fault
///   narrow filament     -> unstable programming        -> write-variation fault
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "fault/fault_map.hpp"
#include "util/rng.hpp"

namespace cim::fault {

/// Physical defect classes.
enum class DefectKind {
  kOxidePinhole,
  kOverForming,
  kFormingFailure,
  kBrokenWordline,
  kBrokenBitline,
  kDecoderDefect,
  kCellBridge,
  kNarrowFilament,
};

std::string_view defect_name(DefectKind kind);
std::vector<DefectKind> all_defect_kinds();

/// One physical defect instance. For line breaks, (row, col) is the break
/// position: cells at index >= the break on that line are affected.
struct Defect {
  DefectKind kind = DefectKind::kOxidePinhole;
  std::size_t row = 0;
  std::size_t col = 0;
};

/// Expands a defect into the cell/array faults it causes on a rows x cols
/// array. `rng` supplies the victim choice for bridges and decoder aliases.
/// Throws std::out_of_range for a defect outside the array, and
/// std::invalid_argument for a decoder defect on a one-row array or a cell
/// bridge on a one-column array (no other line to alias or bridge to).
std::vector<FaultDescriptor> map_defect_to_faults(const Defect& defect,
                                                  std::size_t rows,
                                                  std::size_t cols,
                                                  util::Rng& rng);

/// Samples `n` defects uniformly over kinds and positions and returns the
/// resulting FaultMap (the Monte-Carlo yield model used by the Fig. 6 bench).
FaultMap inject_defects(std::size_t rows, std::size_t cols, std::size_t n,
                        util::Rng& rng);

}  // namespace cim::fault
