/// \file reram_cell.hpp
/// \brief Multi-level ReRAM cell behavioural model (Section II.B.1).
///
/// "To reduce the effect of random variation, the resistance value is
/// typically quantized into N levels. Noise margin and guard bands are added
/// to each level." — the cell model implements exactly that: a LevelScheme
/// quantizing conductance into N linearly spaced levels, stochastic write
/// (lognormal programmed-conductance spread), optional program-and-verify,
/// Gaussian read noise, read/write disturb, endurance wear-out that converts
/// a working cell into a hard-stuck one, and hooks for the fault module to
/// force the fault behaviours of Fig. 6.
#pragma once

#include <cstdint>

#include "device/technology.hpp"
#include "util/rng.hpp"

namespace cim::device {

/// Hard-fault modes a cell can be in (paper: cells stuck at the extremes).
enum class StuckMode : std::uint8_t {
  kNone = 0,
  kStuckAtZero,  ///< SA0: stuck in HRS (lowest conductance, logic 0)
  kStuckAtOne,   ///< SA1: stuck in LRS (highest conductance, logic 1)
};

/// Soft transition faults: the cell can hold both states but fails a
/// specific direction of transition (classic memory TF fault model).
struct TransitionFaults {
  bool up_fails = false;    ///< 0 -> 1 transition does not happen
  bool down_fails = false;  ///< 1 -> 0 transition does not happen
};

/// Linear conductance quantization into `levels` states with guard bands.
class LevelScheme {
 public:
  /// levels >= 2; conductances span [g_min, g_max] (uS), level 0 = HRS.
  LevelScheme(int levels, double g_min_us, double g_max_us);

  int levels() const { return levels_; }
  double g_min_us() const { return g_min_; }
  double g_max_us() const { return g_max_; }

  /// Nominal conductance of a level (uS).
  double level_conductance_us(int level) const;

  /// Nearest level for a measured conductance (clamped to valid range).
  int nearest_level(double g_us) const;

  /// Half the inter-level spacing times the guard factor: a read within this
  /// band of the nominal value resolves unambiguously.
  double guard_band_us() const;

  /// Spacing between adjacent nominal levels (uS).
  double step_us() const;

 private:
  int levels_;
  double g_min_;
  double g_max_;
};

/// Outcome of one (possibly verified) write operation.
struct WriteResult {
  bool success = false;      ///< landed within guard band of the target level
  int attempts = 0;          ///< programming pulses used
  double time_ns = 0.0;
  double energy_pj = 0.0;
};

/// One multi-level ReRAM cell.
class ReRamCell {
 public:
  /// `levels` defaults to the technology's max; clamped to [2, max_levels].
  ReRamCell(const TechnologyParams& tech, int levels, util::Rng& rng);

  const LevelScheme& scheme() const { return scheme_; }

  /// Programs the cell towards `level`. Without verify a single stochastic
  /// pulse is applied; with verify, pulses repeat (up to `max_attempts`)
  /// until the programmed conductance is within the guard band.
  WriteResult write_level(int level, util::Rng& rng, bool verify = false,
                          int max_attempts = 8);

  /// Programs an *analog* target conductance (used for NN weight mapping).
  WriteResult write_conductance(double g_us, util::Rng& rng, bool verify = false,
                                int max_attempts = 8);

  /// Measured conductance: true conductance + read noise; may trigger a
  /// read-disturb drift (towards LRS) with the technology's probability.
  double read_conductance_us(util::Rng& rng);

  /// Noiseless stored conductance (test oracle; not available to circuits).
  double true_conductance_us() const { return g_; }
  /// Level the last write targeted.
  int target_level() const { return target_level_; }
  /// Clamped analog conductance the last program operation targeted (uS).
  /// Health monitors use this as the drift baseline: a hard-stuck or
  /// disturbed cell shows a large |true - target| long before reads fail.
  double target_conductance_us() const { return target_g_; }

  /// Disturb from a write on a neighbouring cell (half-select stress):
  /// with the technology's probability the conductance takes a small step
  /// towards LRS. Returns true when the stored conductance actually moved,
  /// so callers maintaining conductance caches can dirty-track precisely.
  bool disturb_from_neighbour_write(util::Rng& rng);

  // --- fault-module hooks -------------------------------------------------
  void force_stuck(StuckMode mode);
  StuckMode stuck() const { return stuck_; }
  void force_transition_faults(TransitionFaults tf) { tf_ = tf; }
  TransitionFaults transition_faults() const { return tf_; }
  /// Directly overrides the stored conductance (defect injection).
  void force_conductance(double g_us);
  /// Write-variation fault: multiplies the technology's programming sigma.
  void force_write_sigma_scale(double scale) { write_sigma_scale_ = scale; }
  double write_sigma_scale() const { return write_sigma_scale_; }
  /// Disturb faults: multiply the technology's read/write disturb rates
  /// (effective probability is clamped to 1).
  void force_disturb_scales(double read_scale, double write_scale) {
    read_disturb_scale_ = read_scale;
    write_disturb_scale_ = write_scale;
  }

  std::uint64_t write_count() const { return writes_; }
  /// Sampled wear-out limit for this cell (writes until it goes hard-stuck).
  std::uint64_t endurance_limit() const { return endurance_limit_; }
  bool worn_out() const { return writes_ >= endurance_limit_; }

 private:
  double sample_programmed(double target_g, util::Rng& rng) const;
  void maybe_wear_out(util::Rng& rng);

  const TechnologyParams* tech_;
  LevelScheme scheme_;
  double g_;              ///< stored conductance (uS)
  int target_level_ = 0;
  double target_g_ = 0.0;  ///< clamped target of the last program (uS)
  std::uint64_t writes_ = 0;
  std::uint64_t endurance_limit_;
  StuckMode stuck_ = StuckMode::kNone;
  TransitionFaults tf_;
  double write_sigma_scale_ = 1.0;
  double read_disturb_scale_ = 1.0;
  double write_disturb_scale_ = 1.0;
};

}  // namespace cim::device
