/// \file test_read_noise.cpp
/// \brief Tier-0 read noise against its model. The noisy current of a read
///        minus the noise-free current of an identically built array
///        (read_noise_frac 0), divided by the model's per-column sigma
///        sqrt(sum_r (read_noise_frac * v_r * g_eff[r][c])^2), must be
///        N(0, 1): moments, a KS distance and the |z| > 3 and |z| > 4
///        counts, for vmm, vmm_bit_planes and vmm_batch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "../util/normal_checks.hpp"
#include "crossbar/crossbar.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::crossbar::Crossbar;
using cim::crossbar::CrossbarConfig;
using cim::test::NormalTally;
using cim::util::Matrix;
using cim::util::Rng;

constexpr std::size_t kN = 64;

CrossbarConfig noise_cfg(bool noisy) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = kN;
  cfg.levels = 16;
  cfg.seed = 77;
  auto tech = cim::device::technology_params(cfg.tech);
  tech.read_disturb_prob = 0.0;  // both arrays keep their programmed state
  if (!noisy) tech.read_noise_frac = 0.0;
  cfg.tech_override = tech;
  return cfg;
}

/// A kN x kN array programmed with random levels, built in place; `noisy`
/// false gives the identically built noise-free twin.
class Programmed : public Crossbar {
 public:
  explicit Programmed(bool noisy) : Crossbar(noise_cfg(noisy)) {
    Rng rng(5);
    Matrix lv(kN, kN);
    for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
    program_levels(lv);
  }
};

/// g_eff of a noise-free array: the read of 1 V on row r alone is row r.
Matrix effective_conductance(Crossbar& clean) {
  Matrix g(kN, kN);
  std::vector<double> v(kN, 0.0);
  for (std::size_t r = 0; r < kN; ++r) {
    v[r] = 1.0;
    const auto row = clean.vmm(v);
    for (std::size_t c = 0; c < kN; ++c) g(r, c) = row[c];
    v[r] = 0.0;
  }
  return g;
}

/// The model's sigma of column c for wordline voltages v.
double column_sigma(const Matrix& g, const double* v, double frac,
                    std::size_t c) {
  double var = 0.0;
  for (std::size_t r = 0; r < kN; ++r) {
    const double cell_noise = frac * (v[r] * g(r, c));
    var += cell_noise * cell_noise;
  }
  return std::sqrt(var);
}

struct Twins {
  Programmed noisy{true};
  Programmed clean{false};
  Matrix g = effective_conductance(clean);
  double frac = noisy.tech().read_noise_frac;
};

std::vector<double> random_volts(Rng& rng) {
  std::vector<double> v(kN);
  for (auto& x : v) x = rng.uniform(0.0, 0.3);
  return v;
}

TEST(TierZeroReadNoise, VmmResidualsAreStandardNormal) {
  Twins t;
  ASSERT_GT(t.frac, 0.0);
  Rng rng(11);
  NormalTally tally;
  for (int read = 0; read < 4096; ++read) {
    const auto v = random_volts(rng);
    const auto noisy = t.noisy.vmm(v);
    const auto clean = t.clean.vmm(v);
    for (std::size_t c = 0; c < kN; ++c)
      tally.add((noisy[c] - clean[c]) /
                column_sigma(t.g, v.data(), t.frac, c));
  }
  tally.expect_standard_normal("vmm", {3, 4});
}

TEST(TierZeroReadNoise, BitPlaneResidualsAreStandardNormal) {
  Twins t;
  constexpr int kPlanes = 4;
  const double v_read = t.noisy.tech().v_read;
  Rng rng(13);
  NormalTally tally;
  std::vector<std::uint32_t> bits(kN);
  std::vector<double> noisy(kPlanes * kN), clean(kPlanes * kN);
  std::vector<double> e_noisy(kPlanes), e_clean(kPlanes), v(kN);
  for (int request = 0; request < 1024; ++request) {
    for (auto& b : bits) b = static_cast<std::uint32_t>(rng.uniform_int(16));
    t.noisy.vmm_bit_planes(bits, kPlanes, v_read, noisy, e_noisy);
    t.clean.vmm_bit_planes(bits, kPlanes, v_read, clean, e_clean);
    for (int b = 0; b < kPlanes; ++b) {
      for (std::size_t r = 0; r < kN; ++r)
        v[r] = ((bits[r] >> b) & 1u) != 0 ? v_read : 0.0;
      for (std::size_t c = 0; c < kN; ++c) {
        const double sigma = column_sigma(t.g, v.data(), t.frac, c);
        if (sigma == 0.0) continue;  // no row drives this plane
        const std::size_t i = static_cast<std::size_t>(b) * kN + c;
        tally.add((noisy[i] - clean[i]) / sigma);
      }
    }
  }
  tally.expect_standard_normal("vmm_bit_planes", {3, 4});
}

TEST(TierZeroReadNoise, BatchResidualsAreStandardNormal) {
  Twins t;
  Rng rng(17);
  cim::util::ThreadPool pool(2);
  NormalTally tally;
  Matrix batch(64, kN), noisy, clean;
  for (int round = 0; round < 64; ++round) {
    for (auto& x : batch.flat()) x = rng.uniform(0.0, 0.3);
    t.noisy.vmm_batch(batch, noisy, &pool);
    t.clean.vmm_batch(batch, clean, &pool);
    for (std::size_t s = 0; s < batch.rows(); ++s)
      for (std::size_t c = 0; c < kN; ++c)
        tally.add((noisy(s, c) - clean(s, c)) /
                  column_sigma(t.g, batch.row(s).data(), t.frac, c));
  }
  tally.expect_standard_normal("vmm_batch", {3, 4});
}

}  // namespace
