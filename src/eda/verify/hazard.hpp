/// \file hazard.hpp
/// \brief Cross-tile static hazard analysis (`cim::eda::verify`): a race
///        detector for micro-op programs scheduled concurrently on a pool
///        of CIM tiles.
///
/// A multi-tile system (core::CimSystem) dispatches compiled programs onto
/// tiles with a placement origin and a schedule window. Two programs whose
/// windows overlap on the *same* tile contend for physical resources; this
/// analysis derives each program's resource access sets statically
/// (access.hpp) and reports every conflict as a structured diagnostic:
///
///  - `raw-hazard`        a later-starting program reads cells an
///                        overlapping earlier program writes
///  - `waw-hazard`        two overlapping programs write the same cells
///  - `war-hazard`        a later-starting program writes cells an
///                        overlapping earlier program reads
///  - `shared-adc-conflict` both programs sense columns multiplexed onto
///                        the same physical ADC channel (channel =
///                        absolute column % tile ADC count)
///  - `shared-row-driver` warning: both programs engage the same wordline
///                        driver (serialized by the periphery, so a
///                        throughput hazard rather than a correctness one)
///  - `oob-cell`          a placement pushes the program footprint outside
///                        its tile, or names a tile the pool lacks
///
/// Programs on different tiles never conflict (tiles own their arrays,
/// drivers, and ADCs), and same-tile programs with disjoint windows are
/// serialized by construction — both cases produce zero findings, which is
/// the zero-false-positive contract the clean-schedule test sweep locks in.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "eda/verify/access.hpp"
#include "eda/verify/diagnostics.hpp"

namespace cim::eda::verify {

/// Physical resources of one tile in the pool.
struct TileInfo {
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// Physical ADC channels; columns time-multiplex onto channel
  /// (absolute column) % adc_channels.
  std::size_t adc_channels = 1;
};

/// The tile pool programs are scheduled across.
struct TilePool {
  std::vector<TileInfo> tiles;
};

/// One compiled program placed on a tile with a schedule window
/// [start, start + duration). A non-positive duration means "always
/// active" (an unconstrained reservation that overlaps everything on the
/// tile).
struct ScheduledProgram {
  std::string name;
  std::size_t tile = 0;
  std::size_t row0 = 0;  ///< placement origin (tile row)
  std::size_t col0 = 0;  ///< placement origin (tile column)
  double start = 0.0;
  double duration = 0.0;
  ProgramAccess access;  ///< access_of(program)
};

/// Runs the pairwise hazard analysis over `scheduled` against `pool`.
VerifyReport analyze_hazards(const TilePool& pool,
                             const std::vector<ScheduledProgram>& scheduled);

}  // namespace cim::eda::verify
