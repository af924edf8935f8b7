/// \file crossbar_linear.hpp
/// \brief Maps a trained dense layer onto ReRAM crossbars (Fig. 4a).
///
/// Signed weights use the standard differential-pair scheme: two crossbars
/// G+ and G- hold the positive and negative weight magnitudes; the layer
/// output is recovered from the bitline current difference
///   y_c  proportional to  I+_c - I-_c.
/// Inputs are scaled into the read-voltage range; outputs optionally pass
/// through an ADC model, making quantization error part of the inference
/// path (Section II.E).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"
#include "periphery/adc.hpp"
#include "util/matrix.hpp"

namespace cim::nn {

/// Mapping options.
struct CrossbarLinearConfig {
  crossbar::CrossbarConfig array;   ///< template; rows/cols set by the layer
  bool use_adc = false;             ///< digitize bitline currents
  int adc_bits = 8;
  bool program_verify = true;       ///< program-and-verify weight writes
};

/// A dense layer executed on a differential crossbar pair.
class CrossbarLinear {
 public:
  /// `w` has shape (out x in); bias is added digitally after readout.
  CrossbarLinear(const util::Matrix& w, std::span<const double> bias,
                 CrossbarLinearConfig cfg);

  std::size_t in_dim() const { return in_; }
  std::size_t out_dim() const { return out_; }

  /// Analog forward pass; `x` entries are expected in [0, x_max]. `tier`
  /// selects the crossbar fidelity (see crossbar/fidelity.hpp); the
  /// cheaper tiers also fuse the ADC round-trip into the readout loop.
  std::vector<double> forward(
      std::span<const double> x,
      crossbar::FidelityTier tier = crossbar::FidelityTier::kFull);

  /// Re-programs the arrays with updated weights/bias (same shape). Stuck
  /// cells silently keep their value — the mechanism fault-tolerant
  /// retraining (ref. [38]) works around.
  void reprogram(const util::Matrix& w, std::span<const double> bias);

  /// Injects fault maps into the positive / negative arrays.
  void apply_faults(const fault::FaultMap& plus, const fault::FaultMap& minus);

  /// Convenience: same yield on both arrays with stuck-at mix.
  void apply_yield(double yield, util::Rng& rng);

  const crossbar::Crossbar& plus_array() const { return *plus_; }
  const crossbar::Crossbar& minus_array() const { return *minus_; }

  /// Total energy consumed by both arrays so far (pJ).
  double energy_pj() const;

  /// Full-scale input value mapped to v_read.
  double x_max() const { return x_max_; }
  void set_x_max(double x_max);

 private:
  std::size_t in_ = 0;
  std::size_t out_ = 0;
  CrossbarLinearConfig cfg_;
  std::unique_ptr<crossbar::Crossbar> plus_;
  std::unique_ptr<crossbar::Crossbar> minus_;
  std::vector<double> bias_;
  double w_max_ = 1.0;   ///< |W| value mapped to full conductance swing
  double x_max_ = 1.0;
  std::optional<periphery::Adc> adc_;

  // Reused single-sample buffers (forward): steady-state inference does not
  // touch the allocator between the input copy and the returned logits.
  std::vector<double> volts_scratch_;
  std::vector<double> i_plus_scratch_;
  std::vector<double> i_minus_scratch_;
};

}  // namespace cim::nn
