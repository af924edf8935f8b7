/// \file dataset.hpp
/// \brief The repo's one streaming accumulator, `StreamStat`, and the
///        confidence-interval arithmetic the campaign engine stops on.
///
/// The Monte-Carlo campaign engine (src/exp/) is an observability problem
/// at heart: its adaptive-stopping control loop reads *streaming summaries*
/// of trial outcomes — the same shape as the windowed SLO engine reading
/// latency telemetry. This header is that summary layer, in the
/// `cmb_datasummary` mold of Cimba's data collection:
///
///  - `StreamStat`: a Welford accumulator (count/mean/M2/min/max) that is
///    *mergeable*, so per-block partial summaries computed on different
///    threads combine into the same moments. Merging is Chan's parallel
///    update; it is exact in exact arithmetic, and in floating point it is
///    deterministic as long as the merge order is fixed — the campaign
///    engine always folds block summaries in block-index order, which is
///    what makes pooled campaigns bit-identical to a serial run. The
///    benches, the power monitor and util::summarize / util::pearson
///    accumulate with it too.
///  - CI helpers: `normal_quantile` / `z_for_confidence` and
///    `StreamStat::ci_half_width`, the numbers the campaign scheduler
///    compares against its convergence target.
///
/// Everything here is plain value types — no atomics, no registry coupling —
/// because campaign statistics are aggregated at deterministic barriers, not
/// concurrently. For lock-free process-wide metrics use the registry
/// primitives in obs.hpp.
#pragma once

#include <cstdint>

namespace cim::obs {

/// Mergeable Welford accumulator over a stream of doubles.
///
/// Fields are public and raw (count/mean/M2/min/max) so checkpoints can
/// serialize the exact state with %.17g and re-parse it bit-identically —
/// the `cim-campaign-v1` manifest stores these five numbers per cell.
struct StreamStat {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean
  double min = 0.0;
  double max = 0.0;

  /// Welford single-observation update.
  void add(double x) {
    if (n == 0) {
      min = max = x;
    } else {
      if (x < min) min = x;
      if (x > max) max = x;
    }
    n += 1;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
  }

  /// Chan's parallel merge: `*this` becomes the summary of both streams.
  /// Deterministic for a fixed merge order (the campaign engine merges
  /// block summaries in block-index order; see file comment).
  void merge(const StreamStat& other) {
    if (other.n == 0) return;
    if (n == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(n);
    const double nb = static_cast<double>(other.n);
    const double delta = other.mean - mean;
    const double nab = na + nb;
    mean += delta * (nb / nab);
    m2 += other.m2 + delta * delta * (na * nb / nab);
    n += other.n;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }

  void reset() { *this = StreamStat{}; }

  std::uint64_t count() const { return n; }
  double sum() const { return mean * static_cast<double>(n); }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const {
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
  }
  double stddev() const;
  /// Standard error of the mean (stddev / sqrt(n)); 0 for n < 2.
  double std_error() const;

  /// Half-width of the two-sided normal-approximation confidence interval
  /// on the mean: z * stddev / sqrt(n). Returns +infinity for n < 2 (an
  /// unestimable interval never satisfies a convergence target), 0 for a
  /// degenerate (zero-variance) sample.
  double ci_half_width(double z) const;
};

/// Standard-normal quantile Phi^-1(p) for p in (0, 1), by the
/// Beasley-Springer-Moro rational approximation (|err| < 3e-9 over the
/// whole range) — deterministic, no <random> machinery. Out-of-range p
/// returns +/-infinity.
double normal_quantile(double p);

/// Two-sided z multiplier for a confidence level in (0, 1):
/// z_for_confidence(0.95) == Phi^-1(0.975) ~= 1.95996.
double z_for_confidence(double confidence);

}  // namespace cim::obs
