#include "memtest/xabft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cim::memtest {

XabftProtected::XabftProtected(const util::Matrix& levels,
                               crossbar::CrossbarConfig cfg,
                               double detect_threshold_levels)
    : n_(levels.rows()),
      m_(levels.cols()),
      threshold_(detect_threshold_levels),
      stored_levels_(levels),
      row_sums_(levels.rows(), 0),
      col_sums_(levels.cols(), 0),
      xbar_((cfg.rows = levels.rows(), cfg.cols = levels.cols(),
             cfg.verified_writes = true, cfg)) {
  if (levels.empty()) throw std::invalid_argument("XabftProtected: empty matrix");
  // program_levels' rule, checked over the whole matrix before any cast: a
  // NaN or out-of-int level would be UB there.
  const int n_levels = xbar_.scheme().levels();
  for (const double lv : levels.flat())
    if (!(lv >= 0.0 && lv < n_levels && lv == std::floor(lv)))
      throw std::invalid_argument(
          "XabftProtected: level not an integer in [0, levels)");
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t c = 0; c < m_; ++c) {
      const int lvl = static_cast<int>(levels(r, c));
      row_sums_[r] += lvl;
      col_sums_[c] += lvl;
    }
  }
  xbar_.program_levels(levels);
}

double XabftProtected::decode_level_sum(double current_ua,
                                        double active_inputs) const {
  // I = V * sum(g_off + level*step) over active rows
  //   = V * (active * g_off + step * level_sum)
  const auto& tech = xbar_.tech();
  const auto& sch = xbar_.scheme();
  const double v = tech.v_read;
  return (current_ua / v - active_inputs * tech.g_off_us()) / sch.step_us();
}

CheckedMac XabftProtected::multiply(std::span<const double> x01) {
  if (x01.size() != n_) throw std::invalid_argument("XabftProtected: dim mismatch");
  std::vector<double> volts(n_);
  const double v = xbar_.tech().v_read;
  double active = 0.0;
  double digital_checksum = 0.0;
  for (std::size_t r = 0; r < n_; ++r) {
    const bool on = x01[r] >= 0.5;
    volts[r] = on ? v : 0.0;
    if (on) {
      active += 1.0;
      digital_checksum += static_cast<double>(row_sums_[r]);
    }
  }

  const auto currents = xbar_.vmm(volts);
  CheckedMac res;
  res.level_sums.resize(m_);
  double analog_total = 0.0;
  for (std::size_t c = 0; c < m_; ++c) {
    res.level_sums[c] = decode_level_sum(currents[c], active);
    analog_total += res.level_sums[c];
  }
  res.residual_levels = std::abs(analog_total - digital_checksum);
  // Tolerance grows with the number of contributing cells.
  const double tol =
      threshold_ * std::sqrt(std::max(1.0, active * static_cast<double>(m_)) / 64.0 + 1.0);
  res.checksum_ok = res.residual_levels <= tol;
  return res;
}

std::vector<double> XabftProtected::ideal_multiply(
    std::span<const double> x01) const {
  if (x01.size() != n_) throw std::invalid_argument("ideal_multiply: dim mismatch");
  std::vector<double> y(m_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    if (x01[r] < 0.5) continue;
    for (std::size_t c = 0; c < m_; ++c) y[c] += stored_levels_(r, c);
  }
  return y;
}

ScrubReport XabftProtected::scrub() {
  ScrubReport rep;

  // Signature extraction: precise per-cell level reads, compared against the
  // digital checksums row-wise and column-wise.
  util::Matrix observed(n_, m_);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t c = 0; c < m_; ++c) {
      const double g = xbar_.read_conductance(r, c);
      observed(r, c) = xbar_.scheme().nearest_level(g);
      ++rep.reads;
    }

  for (std::size_t r = 0; r < n_; ++r) {
    long sum = 0;
    for (std::size_t c = 0; c < m_; ++c)
      sum += static_cast<long>(observed(r, c));
    if (sum != row_sums_[r]) rep.suspect_rows.push_back(r);
  }
  for (std::size_t c = 0; c < m_; ++c) {
    long sum = 0;
    for (std::size_t r = 0; r < n_; ++r)
      sum += static_cast<long>(observed(r, c));
    if (sum != col_sums_[c]) rep.suspect_cols.push_back(c);
  }

  // Candidate cells: intersection of suspect rows and columns. For each,
  // the checksum-implied correct level is row_sum - sum(other cells in row).
  for (const std::size_t r : rep.suspect_rows) {
    for (const std::size_t c : rep.suspect_cols) {
      long others = 0;
      for (std::size_t cc = 0; cc < m_; ++cc)
        if (cc != c) others += static_cast<long>(observed(r, cc));
      const long implied = row_sums_[r] - others;
      const int observed_level = static_cast<int>(observed(r, c));
      if (implied == observed_level) continue;  // this (r,c) pair is clean
      const int max_level = xbar_.scheme().levels() - 1;
      const int corrected =
          std::clamp(static_cast<int>(implied), 0, max_level);

      CellCorrection fix;
      fix.row = r;
      fix.col = c;
      fix.observed_level = observed_level;
      fix.corrected_level = corrected;

      xbar_.program_cell(r, c,
                         xbar_.scheme().level_conductance_us(corrected));
      ++rep.writes;
      const double g_after = xbar_.read_conductance(r, c);
      ++rep.reads;
      fix.reprogram_succeeded =
          xbar_.scheme().nearest_level(g_after) == corrected;
      rep.corrections.push_back(fix);
    }
  }
  return rep;
}

void XabftProtected::apply_faults(const fault::FaultMap& map) {
  xbar_.apply_faults(map);
}

}  // namespace cim::memtest
