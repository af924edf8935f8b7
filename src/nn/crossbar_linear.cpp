#include "nn/crossbar_linear.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace cim::nn {

CrossbarLinear::CrossbarLinear(const util::Matrix& w,
                               std::span<const double> bias,
                               CrossbarLinearConfig cfg)
    : in_(w.cols()), out_(w.rows()), cfg_(cfg),
      bias_(bias.begin(), bias.end()) {
  if (w.empty()) throw std::invalid_argument("CrossbarLinear: empty weights");
  if (!bias_.empty() && bias_.size() != out_)
    throw std::invalid_argument("CrossbarLinear: bias size mismatch");
  if (bias_.empty()) bias_.assign(out_, 0.0);

  cfg_.array.rows = in_;
  cfg_.array.cols = out_;
  cfg_.array.verified_writes = cfg_.program_verify;
  plus_ = std::make_unique<crossbar::Crossbar>(cfg_.array);
  auto minus_cfg = cfg_.array;
  minus_cfg.seed ^= 0x5bd1e995u;  // independent stochastic stream
  minus_ = std::make_unique<crossbar::Crossbar>(minus_cfg);

  reprogram(w, bias);

  if (cfg_.use_adc) {
    // Full scale: all `in_` cells at g_on conducting at v_read.
    const auto& tech = plus_->tech();
    const double full_scale =
        tech.v_read * tech.g_on_us() * static_cast<double>(in_);
    adc_.emplace(periphery::AdcConfig{.bits = cfg_.adc_bits,
                                      .kind = periphery::AdcKind::kSar,
                                      .sample_rate_gsps = 1.28,
                                      .full_scale_ua = full_scale});
  }
}

void CrossbarLinear::reprogram(const util::Matrix& w,
                               std::span<const double> bias) {
  if (w.rows() != out_ || w.cols() != in_)
    throw std::invalid_argument("reprogram: weight shape mismatch");
  if (!bias.empty()) {
    if (bias.size() != out_)
      throw std::invalid_argument("reprogram: bias size mismatch");
    bias_.assign(bias.begin(), bias.end());
  }

  w_max_ = 1e-12;
  for (double v : w.flat()) w_max_ = std::max(w_max_, std::abs(v));

  const auto& tech = plus_->tech();
  const double g_off = tech.g_off_us();
  const double g_range = tech.g_on_us() - g_off;

  util::Matrix g_plus(in_, out_, g_off);
  util::Matrix g_minus(in_, out_, g_off);
  for (std::size_t o = 0; o < out_; ++o) {
    for (std::size_t i = 0; i < in_; ++i) {
      const double v = w(o, i);
      const double mag = std::min(1.0, std::abs(v) / w_max_);
      if (v >= 0.0)
        g_plus(i, o) = g_off + mag * g_range;
      else
        g_minus(i, o) = g_off + mag * g_range;
    }
  }
  plus_->program_conductances(g_plus);
  minus_->program_conductances(g_minus);
}

void CrossbarLinear::set_x_max(double x_max) {
  if (x_max <= 0.0) throw std::invalid_argument("set_x_max: x_max > 0");
  x_max_ = x_max;
}

std::vector<double> CrossbarLinear::forward(std::span<const double> x,
                                            crossbar::FidelityTier tier) {
  if (x.size() != in_) throw std::invalid_argument("CrossbarLinear: dim mismatch");
  CIM_OBS_SPAN("nn.linear.forward", obs::Component::kArray);
  const auto& tech = plus_->tech();
  const double v_read = tech.v_read;

  volts_scratch_.resize(in_);
  auto& volts = volts_scratch_;
  for (std::size_t i = 0; i < in_; ++i)
    volts[i] = std::clamp(x[i] / x_max_, 0.0, 1.0) * v_read;

  i_plus_scratch_.resize(out_);
  i_minus_scratch_.resize(out_);
  auto& i_plus = i_plus_scratch_;
  auto& i_minus = i_minus_scratch_;
  plus_->vmm(volts, i_plus, tier);
  minus_->vmm(volts, i_minus, tier);

  // Undo the conductance/voltage scaling:
  //   I+ - I- = sum_i v_i * (w_i / w_max) * g_range
  //           = (v_read / x_max) * (g_range / w_max) * sum_i x_i w_i
  const double g_range = tech.g_on_us() - tech.g_off_us();
  const double scale = w_max_ * x_max_ / (v_read * g_range);

  std::vector<double> y(out_);
  if (tier != crossbar::FidelityTier::kFull && adc_) {
    // Fast tiers fuse the ADC round-trip into the readout loop: one pass
    // over the currents instead of a quantize pass plus a combine pass.
    // Same per-element math as the staged path below.
    for (std::size_t o = 0; o < out_; ++o) {
      const double ip = adc_->dequantize(adc_->quantize(i_plus[o]));
      const double im = adc_->dequantize(adc_->quantize(i_minus[o]));
      y[o] = (ip - im) * scale + bias_[o];
    }
    return y;
  }
  if (adc_) {
    for (auto* vec : {&i_plus, &i_minus})
      for (double& i : *vec) i = adc_->dequantize(adc_->quantize(i));
  }
  for (std::size_t o = 0; o < out_; ++o)
    y[o] = (i_plus[o] - i_minus[o]) * scale + bias_[o];
  return y;
}

void CrossbarLinear::apply_faults(const fault::FaultMap& plus,
                                  const fault::FaultMap& minus) {
  plus_->apply_faults(plus);
  minus_->apply_faults(minus);
}

void CrossbarLinear::apply_yield(double yield, util::Rng& rng) {
  const auto mix = fault::FaultMix::stuck_at_only();
  apply_faults(fault::FaultMap::from_yield(in_, out_, yield, mix, rng),
               fault::FaultMap::from_yield(in_, out_, yield, mix, rng));
}

double CrossbarLinear::energy_pj() const {
  return plus_->stats().energy_pj + minus_->stats().energy_pj;
}

}  // namespace cim::nn
