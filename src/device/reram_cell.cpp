#include "device/reram_cell.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cim::device {

LevelScheme::LevelScheme(int levels, double g_min_us, double g_max_us)
    : levels_(levels), g_min_(g_min_us), g_max_(g_max_us) {
  if (levels < 2) throw std::invalid_argument("LevelScheme: levels >= 2");
  if (!(g_max_us > g_min_us) || g_min_us <= 0.0)
    throw std::invalid_argument("LevelScheme: need 0 < g_min < g_max");
}

double LevelScheme::step_us() const {
  return (g_max_ - g_min_) / static_cast<double>(levels_ - 1);
}

double LevelScheme::level_conductance_us(int level) const {
  if (level < 0 || level >= levels_)
    throw std::out_of_range("LevelScheme: level out of range");
  return g_min_ + step_us() * static_cast<double>(level);
}

int LevelScheme::nearest_level(double g_us) const {
  const double idx = (g_us - g_min_) / step_us();
  const int level = static_cast<int>(std::lround(idx));
  return std::clamp(level, 0, levels_ - 1);
}

double LevelScheme::guard_band_us() const {
  // Guard factor 0.4: readings within 40% of the half-spacing of the nominal
  // value count as a clean hit; beyond that the margin is consumed.
  return 0.4 * step_us();
}

ReRamCell::ReRamCell(const TechnologyParams& tech, int levels, util::Rng& rng)
    : tech_(&tech),
      scheme_(std::clamp(levels, 2, tech.max_levels), tech.g_off_us(),
              tech.g_on_us()),
      g_(tech.g_off_us()),
      target_g_(tech.g_off_us()) {
  // Endurance limit per cell: lognormal around the technology mean.
  const double mu_log = std::log(tech.endurance_mean);
  const double sampled = rng.lognormal(mu_log, tech.endurance_sigma_log);
  endurance_limit_ = static_cast<std::uint64_t>(std::max(1.0, sampled));
}

double ReRamCell::sample_programmed(double target_g, util::Rng& rng) const {
  // Lognormal multiplicative spread around the target; the paper: "we end up
  // writing to the cell from a certain conductance distribution, instead of
  // a specific conductance value".
  const double factor =
      rng.lognormal(0.0, tech_->write_sigma_log * write_sigma_scale_);
  return std::clamp(target_g * factor, tech_->g_off_us(), tech_->g_on_us());
}

void ReRamCell::maybe_wear_out(util::Rng& rng) {
  if (stuck_ != StuckMode::kNone) return;
  if (writes_ >= endurance_limit_) {
    // Broken-filament cells favour the extremes (Section III.A).
    stuck_ = rng.bernoulli(0.5) ? StuckMode::kStuckAtZero : StuckMode::kStuckAtOne;
    g_ = (stuck_ == StuckMode::kStuckAtZero) ? tech_->g_off_us() : tech_->g_on_us();
  }
}

WriteResult ReRamCell::write_conductance(double g_us, util::Rng& rng, bool verify,
                                         int max_attempts) {
  WriteResult res;
  g_us = std::clamp(g_us, tech_->g_off_us(), tech_->g_on_us());
  target_level_ = scheme_.nearest_level(g_us);
  target_g_ = g_us;

  if (stuck_ != StuckMode::kNone) {
    // A hard-stuck cell absorbs the pulse but does not move.
    res.attempts = 1;
    res.time_ns = tech_->t_write_ns;
    res.energy_pj = tech_->e_write_pj;
    res.success = std::abs(g_ - g_us) <= scheme_.guard_band_us();
    ++writes_;
    return res;
  }

  // Transition faults: a cell that cannot move up (towards LRS) or down
  // (towards HRS) silently keeps its value for that direction.
  const bool wants_up = g_us > g_;
  if ((wants_up && tf_.up_fails) || (!wants_up && tf_.down_fails)) {
    res.attempts = 1;
    res.time_ns = tech_->t_write_ns;
    res.energy_pj = tech_->e_write_pj;
    res.success = std::abs(g_ - g_us) <= scheme_.guard_band_us();
    ++writes_;
    maybe_wear_out(rng);
    return res;
  }

  const int attempts_allowed = verify ? std::max(1, max_attempts) : 1;
  for (int a = 0; a < attempts_allowed; ++a) {
    ++res.attempts;
    ++writes_;
    res.time_ns += tech_->t_write_ns;
    res.energy_pj += tech_->e_write_pj;
    g_ = sample_programmed(g_us, rng);
    maybe_wear_out(rng);
    if (stuck_ != StuckMode::kNone) break;
    if (!verify) break;
    // Verify read costs a read operation.
    res.time_ns += tech_->t_read_ns;
    res.energy_pj += tech_->e_read_pj;
    if (std::abs(g_ - g_us) <= scheme_.guard_band_us()) break;
  }
  res.success = std::abs(g_ - g_us) <= scheme_.guard_band_us();
  return res;
}

WriteResult ReRamCell::write_level(int level, util::Rng& rng, bool verify,
                                   int max_attempts) {
  return write_conductance(scheme_.level_conductance_us(level), rng, verify,
                           max_attempts);
}

double ReRamCell::read_conductance_us(util::Rng& rng) {
  // Read disturb: a small SET-direction step with low probability.
  const double p_read_disturb =
      std::min(1.0, tech_->read_disturb_prob * read_disturb_scale_);
  if (stuck_ == StuckMode::kNone && rng.bernoulli(p_read_disturb))
    (void)disturb_step();
  const double noise = rng.normal(0.0, tech_->read_noise_frac * g_);
  return std::clamp(g_ + noise, 0.0, tech_->g_on_us() * 1.2);
}

bool ReRamCell::disturb_step() {
  const double g_before = g_;
  g_ = std::min(tech_->g_on_us(), g_ + 0.5 * scheme_.step_us());
  return g_ != g_before;
}

void ReRamCell::force_stuck(StuckMode mode) {
  stuck_ = mode;
  if (mode == StuckMode::kStuckAtZero) g_ = tech_->g_off_us();
  if (mode == StuckMode::kStuckAtOne) g_ = tech_->g_on_us();
}

void ReRamCell::force_conductance(double g_us) {
  g_ = std::clamp(g_us, 0.0, tech_->g_on_us() * 1.2);
}

}  // namespace cim::device
