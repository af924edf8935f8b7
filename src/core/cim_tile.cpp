#include "core/cim_tile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "periphery/dac.hpp"
#include "util/kernels.hpp"

namespace cim::core {

namespace {
crossbar::CrossbarConfig make_array_cfg(const CimTileConfig& cfg, bool minus) {
  auto a = cfg.array;
  a.rows = cfg.tile.rows;
  a.cols = cfg.tile.cols;
  a.tech = cfg.tile.tech;
  a.levels = std::min(1 << cfg.weight_bits,
                      device::technology_params(cfg.tile.tech).max_levels);
  a.verified_writes = true;
  a.seed = cfg.seed ^ (minus ? 0x9e3779b9ULL : 0ULL);
  return a;
}
}  // namespace

CimTile::CimTile(CimTileConfig cfg)
    : cfg_(cfg),
      plus_(std::make_unique<crossbar::Crossbar>(make_array_cfg(cfg, false))),
      minus_(std::make_unique<crossbar::Crossbar>(make_array_cfg(cfg, true))),
      adc_(periphery::AdcConfig{
          .bits = cfg.tile.adc_bits,
          .kind = cfg.tile.adc_kind,
          .sample_rate_gsps = 1.28,
          .full_scale_ua = plus_->tech().v_read * plus_->tech().g_on_us() *
                           static_cast<double>(cfg.tile.rows)}),
      weights_(cfg.tile.cols, cfg.tile.rows),
      acc_(cfg.tile.cols) {
  const auto& tech = plus_->tech();
  v_read_ = tech.v_read;
  g_min_us_ = plus_->scheme().g_min_us();
  step_us_ = plus_->scheme().step_us();
  t_read_ns_ = tech.t_read_ns;

  // The decode's dequantize step depends only on the integer code, so
  // every code's value is formed once, by the same expression the
  // Adc::dequantize -> / v_read chain evaluates.
  dequant_.resize(std::size_t{adc_.max_code()} + 1);
  for (std::uint32_t k = 0; k <= adc_.max_code(); ++k)
    dequant_[k] = adc_.dequantize(k) / v_read_;

  // One wordline read plus ceil(cols/adcs) conversion slots per cycle; the
  // differential pair's two conversions per column share a slot across the
  // two arrays.
  const double adc_conversions_per_cycle =
      2.0 * std::ceil(static_cast<double>(cols()) /
                      static_cast<double>(cfg_.tile.adcs));
  t_adc_ns_ = (adc_conversions_per_cycle / 2.0) * adc_.latency_ns();
  t_cycle_ns_ = t_read_ns_ + t_adc_ns_;
  e_adc_pj_ = adc_conversions_per_cycle * adc_.energy_per_sample_pj();
  e_dac_pj_ = 2.0 * static_cast<double>(rows()) *
              periphery::Dac({.bits = cfg_.tile.dac_bits})
                  .energy_per_conversion_pj();
  e_dig_pj_ = 0.2 * t_read_ns_;  // shift&add power * window
}

std::size_t CimTile::rows() const { return cfg_.tile.rows; }
std::size_t CimTile::cols() const { return cfg_.tile.cols; }

obs::HealthMonitor& CimTile::health_monitor() {
  if (health_ == nullptr)
    health_ = obs::HealthRegistry::global().monitor(
        obs::next_health_name("tile"), 1, cols());
  return *health_;
}

void CimTile::program_weights(const util::Matrix& w_int) {
  if (w_int.rows() != cols() || w_int.cols() != rows())
    throw std::invalid_argument("program_weights: shape must be (out x in)");
  weights_ = w_int;

  const auto& sch = plus_->scheme();
  const int max_level = sch.levels() - 1;
  util::Matrix g_plus(rows(), cols(), sch.g_min_us());
  util::Matrix g_minus(rows(), cols(), sch.g_min_us());
  for (std::size_t o = 0; o < cols(); ++o) {
    for (std::size_t i = 0; i < rows(); ++i) {
      const auto w = static_cast<long>(w_int(o, i));
      const int level =
          std::clamp(static_cast<int>(std::labs(w)), 0, max_level);
      const double g = sch.level_conductance_us(level);
      if (w >= 0)
        g_plus(i, o) = g;
      else
        g_minus(i, o) = g;
    }
  }
  plus_->program_conductances(g_plus);
  minus_->program_conductances(g_minus);
}

std::vector<long> CimTile::vmm_int(std::span<const std::uint32_t> inputs,
                                   int input_bits,
                                   crossbar::FidelityTier tier) {
  if (inputs.size() != rows())
    throw std::invalid_argument("vmm_int: input size != rows");
  if (input_bits < 1 || input_bits > 16)
    throw std::invalid_argument("vmm_int: input_bits in [1,16]");
  CIM_OBS_SPAN_NAMED(span, "tile.vmm_int", obs::Component::kDigital);

  const auto planes = static_cast<std::size_t>(input_bits);
  if (e_plus_.size() < planes) {
    i_plus_.resize(planes * cols());
    i_minus_.resize(planes * cols());
    e_plus_.resize(planes);
    e_minus_.resize(planes);
    active_.resize(planes);
  }
  const std::span<double> i_plus(i_plus_.data(), planes * cols());
  const std::span<double> i_minus(i_minus_.data(), planes * cols());
  const std::span<double> e_plus(e_plus_.data(), planes);
  const std::span<double> e_minus(e_minus_.data(), planes);

  // Both arrays read every bit plane first; the charges they make land in
  // plane order, so replaying them on the arrays' running energy totals
  // below reproduces each cycle's e_array bit for bit.
  double plus_energy = plus_->stats().energy_pj;
  double minus_energy = minus_->stats().energy_pj;
  plus_->vmm_bit_planes(inputs, input_bits, v_read_, i_plus, e_plus, tier);
  minus_->vmm_bit_planes(inputs, input_bits, v_read_, i_minus, e_minus, tier);

  std::fill(active_.begin(), active_.begin() + input_bits, 0);
  for (const std::uint32_t x : inputs)
    for (std::size_t b = 0; b < planes; ++b) active_[b] += (x >> b) & 1u;

  std::fill(acc_.begin(), acc_.end(), 0.0);
  util::simd::AdcDecode decode{
      .full_scale = adc_.config().full_scale_ua,
      .max_code = static_cast<double>(adc_.max_code()),
      .dequant = dequant_.data(),
      .step = step_us_,
  };

  for (std::size_t b = 0; b < planes; ++b) {
    const double* ip = i_plus_.data() + b * cols();
    const double* im = i_minus_.data() + b * cols();
    const double e_before = plus_energy + minus_energy;
    plus_energy += e_plus_[b];
    minus_energy += e_minus_[b];
    const double e_array = plus_energy + minus_energy - e_before;

    if (obs::health_enabled()) {
      // Two conversions per column per bit cycle (differential pair);
      // clipping means the bitline current fell outside full scale.
      auto& h = health_monitor();
      for (std::size_t c = 0; c < cols(); ++c) {
        h.record_adc_sample(c, adc_.clips(ip[c]));
        h.record_adc_sample(c, adc_.clips(im[c]));
      }
    }
    // Convert both arrays' columns, decode the level sums, shift and add.
    decode.offset = static_cast<double>(active_[b]) * g_min_us_;
    decode.weight = std::ldexp(1.0, static_cast<int>(b));
    util::kernels::adc_decode_accumulate(ip, im, acc_.data(), cols(), decode);

    // Cost accounting for the cycle.
    stats_.time_ns += t_cycle_ns_;
    stats_.energy_pj += e_array + e_adc_pj_ + e_dac_pj_ + e_dig_pj_;
    stats_.array_energy_pj += e_array;
    stats_.adc_energy_pj += e_adc_pj_;
    stats_.dac_energy_pj += e_dac_pj_;
    stats_.digital_energy_pj += e_dig_pj_;
    ++stats_.cycles;
    if (obs::enabled()) {
      // Periphery attribution per bit-serial cycle; the crossbars already
      // attributed e_array to kArray inside charge().
      obs::attribute(obs::Component::kAdc, t_adc_ns_, e_adc_pj_);
      obs::attribute(obs::Component::kDac, 0.0, e_dac_pj_);
      obs::attribute(obs::Component::kDigital, 0.0, e_dig_pj_);
      span.add_sim_time_ns(t_cycle_ns_);
      span.add_energy_pj(e_array + e_adc_pj_ + e_dac_pj_ + e_dig_pj_);
    }
  }

  ++stats_.vmm_ops;
  std::vector<long> y(cols());
  for (std::size_t c = 0; c < cols(); ++c)
    y[c] = std::lround(acc_[c]);
  return y;
}

double CimTile::vmm_latency_ns(int input_bits) const {
  return static_cast<double>(input_bits) * t_cycle_ns_;
}

std::vector<long> CimTile::ideal_vmm_int(
    std::span<const std::uint32_t> inputs) const {
  if (inputs.size() != rows())
    throw std::invalid_argument("ideal_vmm_int: input size != rows");
  std::vector<long> y(cols(), 0);
  for (std::size_t o = 0; o < cols(); ++o) {
    long acc = 0;
    for (std::size_t i = 0; i < rows(); ++i)
      acc += static_cast<long>(weights_(o, i)) *
             static_cast<long>(inputs[i]);
    y[o] = acc;
  }
  return y;
}

void CimTile::apply_faults(const fault::FaultMap& plus,
                           const fault::FaultMap& minus) {
  plus_->apply_faults(plus);
  minus_->apply_faults(minus);
}

double CimTile::area_um2() const {
  auto blocks = periphery::tile_breakdown(cfg_.tile);
  double total = periphery::total_cost(blocks).area_um2;
  // Differential pair: the crossbar block exists twice.
  for (const auto& b : blocks)
    if (b.name == "crossbar") total += b.area_um2;
  return total;
}

}  // namespace cim::core
