/// \file fidelity.hpp
/// \brief Fidelity tiers for the analog VMM path (the accuracy/latency dial
///        the serving layer exposes per request).
///
/// Every tier is deterministic and reproducible for a fixed seed and thread
/// count; tiers 1 and 2 are validated against tier 0 within the documented
/// error budgets by tests/crossbar/test_fidelity_tiers.cpp and
/// tests/nn/test_fidelity_conformance.cpp (see DESIGN.md "SIMD dispatch and
/// fidelity tiers" for the per-tier model deltas).
#pragma once

#include <optional>
#include <string_view>

namespace cim::crossbar {

/// How much of the analog device model a VMM pays for.
enum class FidelityTier : int {
  /// Full analog model: per-cell noise-variance accumulation, IR drop,
  /// sneak background, read disturb, health hooks. The reference tier. Its
  /// read noise is a keyed standard normal per (seed, read index, column)
  /// times the column's std (see Crossbar::vmm); everything else is
  /// bit-identical to the historical Crossbar::vmm.
  kFull = 0,
  /// Calibrated fast path: same IR-drop-attenuated currents (bit-identical
  /// pre-noise to tier 0), read noise drawn from a precomputed per-column
  /// variance table (mean-field calibration from the cached conductance
  /// matrix, exact for uniform |v|), closed-form energy, no per-cell RNG,
  /// no read disturb, no health recording.
  kCalibrated = 1,
  /// Ideal/integer oracle: noiseless VMM on the *target* conductances
  /// (bit-identical to Crossbar::ideal_vmm), no IR drop, no sneak, no RNG
  /// advance at all.
  kIdeal = 2,
};

constexpr const char* tier_name(FidelityTier tier) {
  switch (tier) {
    case FidelityTier::kFull: return "full";
    case FidelityTier::kCalibrated: return "calibrated";
    case FidelityTier::kIdeal: return "ideal";
  }
  return "unknown";
}

/// Inverse of tier_name; nullopt for a name no tier has.
constexpr std::optional<FidelityTier> tier_from_name(std::string_view name) {
  for (const FidelityTier t :
       {FidelityTier::kFull, FidelityTier::kCalibrated, FidelityTier::kIdeal})
    if (name == tier_name(t)) return t;
  return std::nullopt;
}

}  // namespace cim::crossbar
