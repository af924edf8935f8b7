#include "serve/window.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cim::serve {

const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double v = 250.0; v <= 4.0e6; v *= 2.0) b.push_back(v);
    return b;
  }();
  return bounds;
}

WindowSeries::WindowSeries(double window_ns, double slo_target_ns,
                           double slo_objective)
    : window_ns_(window_ns) {
  if (!(window_ns > 0.0))
    throw std::invalid_argument("WindowSeries: window_ns must be > 0");
  newest_.bounds = latency_bounds();
  newest_.counts.assign(newest_.bounds.size() + 1, 0);
  if (!(slo_target_ns > 0.0)) return;
  if (!(slo_objective > 0.0) || !(slo_objective < 1.0))
    throw std::invalid_argument(
        "WindowSeries: slo_objective must be in (0, 1)");
  slo_.enabled = true;
  slo_.target_ns = slo_target_ns;
  slo_.objective = slo_objective;
  slo_.window_ns = window_ns;
}

WindowStat& WindowSeries::window_at(double t_ns) {
  const std::uint64_t index =
      t_ns > 0.0 ? static_cast<std::uint64_t>(std::floor(t_ns / window_ns_))
                 : 0;
  if (rows_.empty() || index > rows_.back().index) {
    if (!rows_.empty()) close_newest();
    WindowStat& row = rows_.emplace_back();
    row.index = index;
    row.start_ns = static_cast<double>(index) * window_ns_;
  }
  return rows_.back();
}

void WindowSeries::complete(double t_ns, double latency_ns) {
  WindowStat& row = window_at(t_ns);
  ++row.completed;
  // obs::Histogram's buckets: bucket i holds (bounds[i-1], bounds[i]], and
  // NaN and values above the last bound land in the overflow bucket.
  std::size_t b = 0;
  while (b < newest_.bounds.size() && !(latency_ns <= newest_.bounds[b])) ++b;
  ++newest_.counts[b];
  if (slo_.enabled && !(latency_ns <= slo_.target_ns)) ++row.slo_violations;
}

void WindowSeries::reject(double t_ns) {
  WindowStat& row = window_at(t_ns);
  ++row.rejected;
  ++row.slo_violations;
}

void WindowSeries::close_newest() {
  WindowStat& row = rows_.back();
  if (row.completed > 0) {
    newest_.count = row.completed;
    row.rate_rps = static_cast<double>(row.completed) / (window_ns_ * 1e-9);
    row.p50_ns = newest_.p50();
    row.p99_ns = newest_.p99();
    row.p999_ns = newest_.p999();
    std::fill(newest_.counts.begin(), newest_.counts.end(), 0);
  }
  if (!slo_.enabled) return;

  // Burn over the trailing k window indices, this one included.
  const double budget = 1.0 - slo_.objective;
  const auto trailing_burn = [&](std::uint64_t k) {
    const std::uint64_t from = row.index >= k - 1 ? row.index - (k - 1) : 0;
    std::uint64_t events = 0;
    std::uint64_t bad = 0;
    for (auto it = rows_.rbegin(); it != rows_.rend() && it->index >= from;
         ++it) {
      events += it->completed + it->rejected;
      bad += it->slo_violations;
    }
    return (static_cast<double>(bad) / static_cast<double>(events)) / budget;
  };
  row.burn_rate = trailing_burn(1);
  const bool fast = trailing_burn(kSloFastWindows) >= kSloFastBurn;
  const bool slow = trailing_burn(kSloSlowWindows) >= kSloSlowBurn;
  if (fast && !fast_active_) {
    ++slo_.fast_alerts;
    if (slo_.first_breach_ns < 0.0) slo_.first_breach_ns = row.start_ns;
  }
  if (slow && !slow_active_) ++slo_.slow_alerts;
  fast_active_ = fast;
  slow_active_ = slow;
}

void WindowSeries::finish() {
  if (!rows_.empty()) close_newest();
  if (!slo_.enabled) return;
  for (const WindowStat& row : rows_) {
    slo_.bad += row.slo_violations;
    slo_.good += row.completed + row.rejected - row.slo_violations;
  }
  const std::uint64_t total = slo_.good + slo_.bad;
  slo_.budget_consumed =
      total > 0 ? static_cast<double>(slo_.bad) /
                      (static_cast<double>(total) * (1.0 - slo_.objective))
                : 0.0;
  slo_.breached = slo_.fast_alerts > 0 || slo_.budget_consumed >= 1.0;
  if (slo_.breached && slo_.first_breach_ns < 0.0 && !rows_.empty())
    slo_.first_breach_ns = rows_.front().start_ns;
}

}  // namespace cim::serve
