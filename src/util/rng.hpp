/// \file rng.hpp
/// \brief Deterministic, seedable pseudo-random number generation.
///
/// cimlib avoids std::mt19937 in hot paths and instead uses xoshiro256++,
/// which is small, fast and has well-understood statistical quality. All
/// stochastic components of the framework (device variation, fault
/// injection, workload generation) take a `Rng&` so experiments are exactly
/// reproducible from a single seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cim::util {

/// xoshiro256++ generator with SplitMix64 seeding.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can also be
/// handed to <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit output. The generator step, uniform() and bernoulli()
  /// are inline: a hot loop that draws from a local copy keeps the state in
  /// registers.
  std::uint64_t operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of one step.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Counter-based 64-bit word: word ctr + 1 of the SplitMix64 stream
  /// seeded at `key` (its output function on key + (ctr + 1) * gamma). A
  /// pure function of (key, ctr); distinct ctr values give independent words
  /// (full-avalanche mix). Keyed draws whose statistics are their contract,
  /// such as a crossbar's disturb events, take their words from it.
  static std::uint64_t keyed_word(std::uint64_t key, std::uint64_t ctr) {
    std::uint64_t z = key + (ctr + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Counter-based approximate standard normal: a pure function of
  /// (key, ctr), so N draws need only ONE generator advance for the key —
  /// the per-draw cost is a single SplitMix64 finalizer instead of
  /// Box-Muller's log/sqrt/trig. The mixed 64-bit word is split into four
  /// 16-bit lanes and summed (Irwin-Hall n = 4); the result is
  /// moment-matched to N(0, 1) up to the 2^-32 lattice-variance deficit
  /// (std = sqrt(1 - 2^-32)). Support ±2*sqrt(3) sigma. Distinct ctr values
  /// give independent draws (full-avalanche mix). Used by calibrated fast
  /// paths whose consumers are validated statistically, not tail by tail
  /// (crossbar FidelityTier::kCalibrated). Inline by design: hot tier-1
  /// crossbar paths draw this per column.
  static double normal_hash(std::uint64_t key, std::uint64_t ctr) {
    const std::uint64_t z = keyed_word(key, ctr);
    const double s = static_cast<double>(z & 0xffff) +
                     static_cast<double>((z >> 16) & 0xffff) +
                     static_cast<double>((z >> 32) & 0xffff) +
                     static_cast<double>(z >> 48);
    // Lanes are uniform on {0..65535}: sum mean 2*65535, scale sqrt(3)/2^16.
    return (s - 131070.0) * (1.7320508075688772 / 65536.0);
  }

  /// Lognormal: exp(N(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Counter-based sub-stream seed: mixes (seed, stream) through two
  /// SplitMix64 rounds. Pure function of its arguments — task i of a
  /// parallel loop gets `stream(master, i)` and sees the same numbers
  /// regardless of which thread runs it or in what order, which is the
  /// backbone of the repo's "bit-identical for any thread count" contract.
  ///
  /// NESTED SPLITTING: composing this with itself —
  /// `stream_seed(stream_seed(s, a), b)` — is NOT collision-free by
  /// construction. The outer call folds its 64-bit seed argument through
  /// the same Weyl-step + SplitMix64 mix, so two distinct (a, b) pairs can
  /// in principle land on the same final seed (a birthday bound of
  /// ~2^-64 per pair, but nothing *structural* rules it out, and a
  /// collision silently correlates two "independent" Monte-Carlo trials).
  /// Callers that need a two-level split (parameter cell x replication,
  /// as in the cim::exp campaign engine) should use `stream_seed2`, which
  /// mixes both indices into the state in one pass; the campaign key
  /// space is additionally collision-audited by
  /// tests/exp/test_seed_audit.cpp.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

  /// Two-index sub-stream seed for nested splits: a pure function of
  /// (seed, hi, lo) that feeds both indices through *independent* Weyl
  /// constants before the double SplitMix64 finalizer, instead of chaining
  /// two stream_seed calls. Use for cell x replication style key spaces;
  /// `stream_seed2(s, 0, i) != stream_seed(s, i)` in general (the two
  /// families are distinct by design, so mixing them in one experiment
  /// cannot alias).
  static std::uint64_t stream_seed2(std::uint64_t seed, std::uint64_t hi,
                                    std::uint64_t lo);

  /// Generator over sub-stream `stream` of `seed` (see `stream_seed`).
  static Rng stream(std::uint64_t seed, std::uint64_t stream_index);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cim::util
