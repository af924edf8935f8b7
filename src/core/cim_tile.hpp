/// \file cim_tile.hpp
/// \brief One complete CIM core: crossbar array + periphery + controller
///        (Fig. 4b). The tile executes digital-in / digital-out VMM through
///        the full analog path — DAC-driven bit-serial inputs, crossbar
///        currents, ADC conversion, shift-and-add accumulation — so ADC
///        resolution, device variation and faults all shape the result.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"
#include "periphery/adc.hpp"
#include "periphery/tile_cost.hpp"
#include "util/matrix.hpp"

namespace cim::core {

/// Tile configuration: geometry + periphery provisioning + array behaviour.
struct CimTileConfig {
  periphery::TileConfig tile{};            ///< rows/cols/ADC/DAC provisioning
  crossbar::CrossbarConfig array{};        ///< non-ideality knobs
  int weight_bits = 4;                     ///< signed weight magnitude bits
  std::uint64_t seed = 1234;
};

/// Accumulated execution statistics of one tile.
struct CimTileStats {
  std::uint64_t vmm_ops = 0;
  std::uint64_t cycles = 0;
  double time_ns = 0.0;
  double energy_pj = 0.0;
  double array_energy_pj = 0.0;
  double adc_energy_pj = 0.0;
  double dac_energy_pj = 0.0;
  double digital_energy_pj = 0.0;
};

/// A CIM tile executing signed integer VMMs on a differential crossbar pair.
class CimTile {
 public:
  explicit CimTile(CimTileConfig cfg);

  std::size_t rows() const;  ///< input dimension
  std::size_t cols() const;  ///< output dimension

  /// Programs signed integer weights, shape (out x in), |w| < 2^weight_bits.
  void program_weights(const util::Matrix& w_int);

  /// Executes y = W x for unsigned integer inputs of `input_bits` bits,
  /// streamed bit-serially; only the low `input_bits` bits of each input
  /// are read. Returns signed integer outputs (subject to ADC
  /// quantization and analog non-idealities). `tier` selects the array
  /// fidelity of every bit-serial VMM cycle (crossbar/fidelity.hpp); the
  /// bit-sliced wordline voltages are exactly the uniform-|v| inputs the
  /// tier-1 noise calibration is exact for. Each array reads all bit
  /// planes in one Crossbar::vmm_bit_planes call.
  std::vector<long> vmm_int(
      std::span<const std::uint32_t> inputs, int input_bits,
      crossbar::FidelityTier tier = crossbar::FidelityTier::kFull);

  /// Exact reference result (oracle).
  std::vector<long> ideal_vmm_int(std::span<const std::uint32_t> inputs) const;

  /// Simulated latency of one vmm_int of `input_bits` bits on this tile
  /// (ns). The bit-serial pipeline's cycle time is data-independent
  /// (wordline read + ADC conversions), so this closed form is the per-call
  /// stats().time_ns increment (vmm_int sums the same cycle time once per
  /// bit, so the two agree to rounding) — the quantity the serving
  /// controller schedules against without executing the request.
  double vmm_latency_ns(int input_bits) const;

  /// Injects faults into the positive/negative arrays.
  void apply_faults(const fault::FaultMap& plus, const fault::FaultMap& minus);

  const CimTileStats& stats() const { return stats_; }

  /// Static area of the tile (um^2), from the periphery cost model
  /// (doubled array for the differential pair).
  double area_um2() const;

  const CimTileConfig& config() const { return cfg_; }

  /// Per-column periphery health monitor ("tile.<n>" in the registry; rows
  /// = 1, cols = tile cols): ADC conversion/saturation counts for the
  /// differential pair. The crossbars attach their own spatial monitors.
  obs::HealthMonitor& health_monitor();

  /// The differential crossbar pair backing this tile. Exposed so health
  /// consumers (wear/drift-aware request routing, exporters) can read the
  /// arrays' spatial monitors; mutating the arrays directly bypasses the
  /// tile's weight bookkeeping.
  crossbar::Crossbar& plus_array() { return *plus_; }
  crossbar::Crossbar& minus_array() { return *minus_; }

 private:
  CimTileConfig cfg_;
  std::unique_ptr<crossbar::Crossbar> plus_;
  std::unique_ptr<crossbar::Crossbar> minus_;
  periphery::Adc adc_;
  util::Matrix weights_;  ///< programmed integer weights (oracle copy)
  CimTileStats stats_;
  std::shared_ptr<obs::HealthMonitor> health_;

  // Constants of one bit-serial cycle, fixed at construction: the cycle's
  // time and periphery energies are data-independent, and so are the
  // array's read voltage and level scheme.
  double v_read_ = 0.0;      ///< wordline read voltage (V)
  double g_min_us_ = 0.0;    ///< level-0 conductance (uS)
  double step_us_ = 0.0;     ///< conductance step between weight levels
  double t_read_ns_ = 0.0;   ///< wordline read window (ns)
  double t_adc_ns_ = 0.0;    ///< ADC conversion slots of one cycle (ns)
  double t_cycle_ns_ = 0.0;  ///< t_read_ns_ + t_adc_ns_
  double e_adc_pj_ = 0.0;    ///< both arrays' conversions of one cycle
  double e_dac_pj_ = 0.0;    ///< both arrays' wordline drivers of one cycle
  double e_dig_pj_ = 0.0;    ///< shift&add of one cycle

  /// ADC dequantize table, built once: dequant_[k] =
  /// adc_.dequantize(k) / v_read_ for every code k in [0, max_code].
  std::vector<double> dequant_;

  // Scratch of vmm_int, grown to the widest call seen: the two arrays'
  // bitline currents and per-plane energies (plane-major), the active
  // row count of each plane, and the shift-and-add accumulators.
  std::vector<double> i_plus_;
  std::vector<double> i_minus_;
  std::vector<double> e_plus_;
  std::vector<double> e_minus_;
  std::vector<std::size_t> active_;
  std::vector<double> acc_;
};

}  // namespace cim::core
