/// \file test_fidelity_tiers.cpp
/// \brief Fidelity-dial conformance gate (ISSUE 7): tier 1 (calibrated fast
///        path) and tier 2 (pure ideal) VMM validated against the tier-0
///        full analog model.
///
/// Error budget (documented in DESIGN.md "SIMD dispatch and fidelity
/// tiers"): with default technology noise, tier 1's per-column expected
/// current matches tier 0 bitwise before noise, its noise std matches the
/// tier-0 column std within 10% for uniform-|v| inputs (exact calibration
/// point — the tile layer's bit-sliced DACs) and within 25% per column for
/// arbitrary inputs; tier 2 is bit-identical to the ideal_vmm() oracle.
/// Every tier is deterministic and thread-count independent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "device/technology.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::crossbar::Crossbar;
using cim::crossbar::CrossbarConfig;
using cim::crossbar::FidelityTier;
using cim::util::Matrix;
using cim::util::Rng;
using cim::util::ThreadPool;

CrossbarConfig base_cfg(std::uint64_t seed, std::size_t rows,
                        std::size_t cols) {
  CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.levels = 16;
  cfg.seed = seed;
  return cfg;
}

/// Disables the stochastic read effects so tier 0's output is exactly its
/// pre-noise accumulation (the quantity tier 1 must reproduce bitwise).
void zero_read_noise(CrossbarConfig& cfg) {
  auto p = cim::device::technology_params(cfg.tech);
  p.read_noise_frac = 0.0;
  p.read_disturb_prob = 0.0;
  cfg.tech_override = p;
}

/// Keeps read noise but pins disturb off so the array state stays frozen
/// across repeated statistical draws.
void freeze_array(CrossbarConfig& cfg) {
  auto p = cim::device::technology_params(cfg.tech);
  p.read_disturb_prob = 0.0;
  cfg.tech_override = p;
}

/// An array programmed with random levels drawn from its seed, built in
/// place (a Crossbar can be neither copied nor moved).
class Programmed : public Crossbar {
 public:
  explicit Programmed(const CrossbarConfig& cfg) : Crossbar(cfg) {
    Rng rng(cfg.seed + 17);
    Matrix lv(cfg.rows, cfg.cols);
    for (auto& v : lv.flat())
      v = static_cast<double>(
          rng.uniform_int(static_cast<std::size_t>(cfg.levels)));
    program_levels(lv);
  }
};

std::vector<double> uniform_input(std::size_t n, double v) {
  return std::vector<double>(n, v);
}

std::vector<double> random_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.0, 0.3);
  return v;
}

}  // namespace

TEST(FidelityTiers, IdealTierMatchesOracleBitwise) {
  Programmed xbar(base_cfg(7, 48, 40));
  for (std::uint64_t s = 0; s < 4; ++s) {
    const auto v = random_input(48, 100 + s);
    const auto oracle = xbar.ideal_vmm(v);
    const auto got = xbar.vmm(v, FidelityTier::kIdeal);
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t c = 0; c < got.size(); ++c)
      ASSERT_EQ(got[c], oracle[c]) << "col " << c;
  }
}

TEST(FidelityTiers, IdealTierDoesNotAdvanceRngOrState) {
  // A tier-2 read is side-effect-free on the stochastic state: interleaving
  // it must not change the subsequent tier-0 sequence.
  const auto cfg = base_cfg(11, 32, 32);
  Programmed a(cfg);
  Programmed b(cfg);
  const auto v = random_input(32, 5);

  const auto a0 = a.vmm(v, FidelityTier::kFull);

  (void)b.vmm(v, FidelityTier::kIdeal);
  (void)b.vmm(v, FidelityTier::kIdeal);
  const auto b0 = b.vmm(v, FidelityTier::kFull);

  for (std::size_t c = 0; c < a0.size(); ++c) ASSERT_EQ(a0[c], b0[c]);
}

TEST(FidelityTiers, CalibratedPreNoiseBitIdenticalToFull) {
  // With read noise and disturb pinned to zero, tier 0 degenerates to its
  // pre-noise accumulation — which tier 1 must reproduce bit-for-bit (same
  // per-row mul-then-add order through the dispatched kernels).
  auto cfg = base_cfg(13, 64, 48);
  zero_read_noise(cfg);
  Programmed xbar(cfg);
  for (std::uint64_t s = 0; s < 4; ++s) {
    const auto v = s == 0 ? uniform_input(64, 0.2) : random_input(64, 50 + s);
    const auto full = xbar.vmm(v, FidelityTier::kFull);
    const auto fast = xbar.vmm(v, FidelityTier::kCalibrated);
    for (std::size_t c = 0; c < full.size(); ++c)
      ASSERT_EQ(fast[c], full[c]) << "col " << c;
  }
}

TEST(FidelityTiers, CalibratedTierIsDeterministic) {
  const auto cfg = [] {
    auto c = base_cfg(19, 40, 40);
    freeze_array(c);
    return c;
  }();
  Programmed a(cfg);
  Programmed b(cfg);
  const auto v = random_input(40, 9);
  for (int rep = 0; rep < 3; ++rep) {
    const auto ya = a.vmm(v, FidelityTier::kCalibrated);
    const auto yb = b.vmm(v, FidelityTier::kCalibrated);
    for (std::size_t c = 0; c < ya.size(); ++c) ASSERT_EQ(ya[c], yb[c]);
  }
}

TEST(FidelityTiers, CalibratedNoiseStdWithinBudget) {
  // Sample statistics of tier 1 vs tier 0 on a frozen array. The mean must
  // agree (both are unbiased around the pre-noise currents) and the
  // per-column noise std must match within the documented budget: 10% at
  // the uniform-|v| calibration point, 25% per column for arbitrary inputs
  // (mean-field approximation; sampling error at kReps is ~1.6%).
  auto cfg = base_cfg(23, 64, 24);
  freeze_array(cfg);
  Programmed xbar(cfg);

  auto noiseless_cfg = cfg;
  zero_read_noise(noiseless_cfg);
  Programmed oracle(noiseless_cfg);

  constexpr int kReps = 2000;
  const struct {
    std::vector<double> v;
    double std_budget;
  } cases[] = {{uniform_input(64, 0.2), 0.10},
               {random_input(64, 77), 0.25}};

  for (const auto& tc : cases) {
    const auto base = oracle.vmm(tc.v, FidelityTier::kCalibrated);
    const std::size_t cols = base.size();
    std::vector<double> m0(cols, 0.0), s0(cols, 0.0);
    std::vector<double> m1(cols, 0.0), s1(cols, 0.0);
    for (int rep = 0; rep < kReps; ++rep) {
      const auto y0 = xbar.vmm(tc.v, FidelityTier::kFull);
      const auto y1 = xbar.vmm(tc.v, FidelityTier::kCalibrated);
      for (std::size_t c = 0; c < cols; ++c) {
        const double d0 = y0[c] - base[c];
        const double d1 = y1[c] - base[c];
        m0[c] += d0;
        s0[c] += d0 * d0;
        m1[c] += d1;
        s1[c] += d1 * d1;
      }
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const double mean0 = m0[c] / kReps;
      const double mean1 = m1[c] / kReps;
      const double std0 = std::sqrt(s0[c] / kReps - mean0 * mean0);
      const double std1 = std::sqrt(s1[c] / kReps - mean1 * mean1);
      ASSERT_GT(std0, 0.0);
      // Unbiasedness: the mean deviation is small vs the noise scale.
      EXPECT_LT(std::abs(mean0), 0.1 * std0) << "col " << c;
      EXPECT_LT(std::abs(mean1), 0.1 * std0) << "col " << c;
      EXPECT_NEAR(std1 / std0, 1.0, tc.std_budget) << "col " << c;
    }
  }
}

TEST(FidelityTiers, CalibratedBatchBitIdenticalAcrossPoolSizes) {
  const auto cfg = [] {
    auto c = base_cfg(29, 48, 32);
    freeze_array(c);
    return c;
  }();
  const auto batch = [] {
    Rng rng(31);
    Matrix v(6, 48);
    for (auto& x : v.flat()) x = rng.uniform(0.0, 0.3);
    return v;
  }();

  Programmed serial(cfg);
  ThreadPool pool1(1);
  Matrix out1;
  serial.vmm_batch(batch, out1, &pool1, FidelityTier::kCalibrated);

  Programmed parallel(cfg);
  ThreadPool pool4(4);
  Matrix out4;
  parallel.vmm_batch(batch, out4, &pool4, FidelityTier::kCalibrated);

  ASSERT_EQ(out1.rows(), out4.rows());
  ASSERT_EQ(out1.cols(), out4.cols());
  for (std::size_t i = 0; i < out1.flat().size(); ++i)
    ASSERT_EQ(out1.flat()[i], out4.flat()[i]);
}

TEST(FidelityTiers, IdealBatchMatchesSerialLoop) {
  const auto cfg = base_cfg(37, 40, 28);
  Programmed xbar(cfg);
  const auto batch = [] {
    Rng rng(41);
    Matrix v(5, 40);
    for (auto& x : v.flat()) x = rng.uniform(0.0, 0.3);
    return v;
  }();

  ThreadPool pool(3);
  Matrix out;
  xbar.vmm_batch(batch, out, &pool, FidelityTier::kIdeal);
  ASSERT_EQ(out.rows(), batch.rows());
  for (std::size_t b = 0; b < batch.rows(); ++b) {
    std::vector<double> v(batch.cols());
    for (std::size_t r = 0; r < batch.cols(); ++r) v[r] = batch(b, r);
    const auto serial = xbar.vmm(v, FidelityTier::kIdeal);
    for (std::size_t c = 0; c < serial.size(); ++c)
      ASSERT_EQ(out(b, c), serial[c]) << "sample " << b << " col " << c;
  }
}

TEST(FidelityTiers, PassiveArrayKeepsSneakBackgroundInCalibratedTier) {
  // The sneak-path background is a deterministic shift, so the fast tier
  // must keep it: compare tier 1 on a passive vs an otherwise identical
  // active array (noise off isolates the background term).
  auto cfg = base_cfg(43, 32, 32);
  zero_read_noise(cfg);
  Programmed active(cfg);
  cfg.passive_array = true;
  Programmed passive(cfg);

  const auto v = uniform_input(32, 0.2);
  const auto ya = active.vmm(v, FidelityTier::kCalibrated);
  const auto yp = passive.vmm(v, FidelityTier::kCalibrated);
  const auto yp_full = passive.vmm(v, FidelityTier::kFull);
  for (std::size_t c = 0; c < ya.size(); ++c) {
    EXPECT_GT(yp[c], ya[c]) << "col " << c;  // background adds current
    ASSERT_EQ(yp[c], yp_full[c]) << "col " << c;  // and matches tier 0
  }
}

TEST(FidelityTiers, StatsAndEnergyAccounting) {
  // Every tier accounts one vmm op and a positive energy; tier 1/2 energy
  // agrees with tier 0's (closed form vs per-cell sum) to reassociation
  // ulps on a noise-free array.
  auto cfg = base_cfg(47, 32, 32);
  zero_read_noise(cfg);
  Programmed xbar(cfg);
  const auto v = random_input(32, 3);

  const auto& st = xbar.stats();
  const auto ops0 = st.vmm_ops;

  const double e0_before = st.energy_pj;
  (void)xbar.vmm(v, FidelityTier::kFull);
  const double e_full = st.energy_pj - e0_before;

  const double e1_before = st.energy_pj;
  (void)xbar.vmm(v, FidelityTier::kCalibrated);
  const double e_fast = st.energy_pj - e1_before;

  const double e2_before = st.energy_pj;
  (void)xbar.vmm(v, FidelityTier::kIdeal);
  const double e_ideal = st.energy_pj - e2_before;

  EXPECT_EQ(st.vmm_ops, ops0 + 3);
  EXPECT_GT(e_full, 0.0);
  EXPECT_NEAR(e_fast, e_full, 1e-9 * e_full);
  // Ideal energy uses target (not variation-perturbed) conductances: same
  // magnitude, not identical.
  EXPECT_NEAR(e_ideal, e_full, 0.2 * e_full);
}
