/// \file window.hpp
/// \brief A serving run's simulated-time window series and SLO burn-rate
///        alerts, accumulated in one in-order pass over its lifecycle events.
///
/// End-of-run aggregates can say *that* p99 exploded but not *when*: an
/// overload run folds the healthy warm-up and the collapsing tail into one
/// number. Controller::run replays every lifecycle event of a run sorted by
/// simulated time, and feeds the completions and rejections to a
/// WindowSeries. It files each event under window `floor(t_ns / window_ns)`
/// (times <= 0 and NaN under window 0) and keeps, per window, the completed,
/// rejected and violation counts and the fixed latency buckets its
/// quantiles come from, plus Google-SRE error-budget accounting with
/// burn-rate alerts.
///
/// Events arrive in order, so only the newest window is open: it closes for
/// good when the first event of a later window arrives, and nothing is
/// bounded, evicted or merged. Nothing here reads a wall clock, so the
/// series is a pure function of the event stream and bit-identical at any
/// CIM_THREADS.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/obs.hpp"

namespace cim::serve {

/// One simulated-time window of a run that saw traffic
/// (ControllerConfig::window_ns): the live view end-of-run aggregates cannot
/// give — *when* the tail blew up, not just that it did.
struct WindowStat {
  std::uint64_t index = 0;   ///< window number (floor(t / window_ns))
  double start_ns = 0.0;     ///< index * window_ns
  std::uint64_t completed = 0;  ///< completions whose done time fell here
  std::uint64_t rejected = 0;   ///< admissions shed in this window
  double rate_rps = 0.0;     ///< completed / window (simulated)
  double p50_ns = 0.0;       ///< within-window latency quantiles
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  std::uint64_t slo_violations = 0;  ///< latency > target + rejections
  double burn_rate = 0.0;    ///< this window's budget burn multiple
};

/// Whole-run SLO summary (error-budget accounting).
struct SloSummary {
  bool enabled = false;
  double target_ns = 0.0;
  double objective = 0.0;
  double window_ns = 0.0;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  /// bad / ((good + bad) * (1 - objective)): 1.0 = budget exactly spent,
  /// > 1 = SLO missed over the run. 0 when no events.
  double budget_consumed = 0.0;
  std::size_t fast_alerts = 0;  ///< fast-burn condition onsets
  std::size_t slow_alerts = 0;  ///< slow-burn condition onsets
  bool breached = false;  ///< any fast alert, or budget_consumed >= 1
  double first_breach_ns = -1.0;  ///< window start of the first breach
};

/// The burn-rate alert policy. A window's burn rate is its violation
/// fraction / (1 - objective), so 1.0 spends the error budget exactly at the
/// objective. The fast alert looks at the newest window alone and catches
/// cliffs; the slow alert looks at the trailing 12 window indices (quiet
/// windows add no events) and catches smoulder. 14.4x and 6x are the classic
/// 1h/5% and 6h/10% SRE thresholds. Both are evaluated as each window
/// closes, and count onsets, not windows.
inline constexpr std::uint64_t kSloFastWindows = 1;
inline constexpr std::uint64_t kSloSlowWindows = 12;
inline constexpr double kSloFastBurn = 14.4;
inline constexpr double kSloSlowBurn = 6.0;

/// Latency bucket bounds (ns) of the window quantiles and of the
/// serve.*_ns registry histograms: a geometric 2x ladder from 250 ns to
/// ~4 ms, wide enough for sub-us tile service times and deep overload
/// queues.
const std::vector<double>& latency_bounds();

/// Exact q-quantile of a sorted sample by nearest rank: element
/// ceil(q * n) - 1, clamped to [0, n - 1]; 0 for an empty sample. The
/// controller's run summary and cim-reqlog read their latency quantiles
/// from it, since the per-request records are all in hand (unlike the
/// bucket estimate of the windows and the registry histograms).
double exact_quantile(const std::vector<double>& sorted, double q);

/// In-order per-window accumulator of a run's completions and rejections.
class WindowSeries {
 public:
  /// `window_ns` > 0. An `slo_target_ns` > 0 turns on SLO accounting
  /// against `slo_objective`, which must then lie in (0, 1).
  WindowSeries(double window_ns, double slo_target_ns, double slo_objective);

  /// A completion at `t_ns`. With the SLO on it violates unless
  /// `latency_ns` <= target (so a NaN latency violates). Event times must
  /// not decrease.
  void complete(double t_ns, double latency_ns);
  /// A rejection at `t_ns`: always a violation (an open-loop requester got
  /// no answer at all).
  void reject(double t_ns);

  /// Rejections so far in the newest window.
  std::uint64_t newest_rejected() const {
    return rows_.empty() ? 0 : rows_.back().rejected;
  }
  /// The SLO summary: fast/slow alert onsets and the first breach so far;
  /// the totals and the verdict once finish() has run.
  const SloSummary& slo() const { return slo_; }

  /// Closes the newest window and completes the SLO summary. Call once,
  /// after the last event.
  void finish();

  /// Windows that saw at least one event, in index order. The newest is
  /// complete only after finish().
  const std::vector<WindowStat>& windows() const { return rows_; }

 private:
  /// Makes the window of `t_ns` the newest, closing the previous one.
  WindowStat& window_at(double t_ns);
  void close_newest();

  double window_ns_;
  std::vector<WindowStat> rows_;
  obs::Histogram::Snapshot newest_;  ///< the newest window's latencies
  bool fast_active_ = false;  ///< alert levels at the last close (onsets)
  bool slow_active_ = false;
  SloSummary slo_;
};

}  // namespace cim::serve
