#include "core/cim_tile.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cim::core {
namespace {

CimTileConfig small_tile(std::size_t rows = 16, std::size_t cols = 8) {
  CimTileConfig cfg;
  cfg.tile.rows = rows;
  cfg.tile.cols = cols;
  cfg.tile.adc_bits = 10;
  cfg.tile.adcs = 2;
  cfg.weight_bits = 4;
  cfg.array.model_ir_drop = false;
  cfg.seed = 7;
  return cfg;
}

util::Matrix random_weights(std::size_t out, std::size_t in, int bits,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix w(out, in);
  const int span = (1 << bits) - 1;
  for (auto& v : w.flat())
    v = static_cast<double>(static_cast<long>(rng.uniform_int(2 * span + 1)) -
                            span);
  return w;
}

TEST(CimTile, IdealOracleIsExact) {
  CimTile tile(small_tile());
  const auto w = random_weights(8, 16, 4, 3);
  tile.program_weights(w);
  std::vector<std::uint32_t> x(16);
  util::Rng rng(5);
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(16));
  const auto y = tile.ideal_vmm_int(x);
  for (std::size_t o = 0; o < 8; ++o) {
    long ref = 0;
    for (std::size_t i = 0; i < 16; ++i)
      ref += static_cast<long>(w(o, i)) * static_cast<long>(x[i]);
    EXPECT_EQ(y[o], ref);
  }
}

TEST(CimTile, AnalogVmmTracksOracle) {
  CimTile tile(small_tile());
  const auto w = random_weights(8, 16, 4, 7);
  tile.program_weights(w);
  util::Rng rng(9);
  util::RunningStats rel_err;
  for (int t = 0; t < 10; ++t) {
    std::vector<std::uint32_t> x(16);
    for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(16));
    const auto y = tile.vmm_int(x, 4);
    const auto ref = tile.ideal_vmm_int(x);
    for (std::size_t o = 0; o < 8; ++o) {
      const double scale = std::max(16.0, std::abs(double(ref[o])));
      rel_err.add(std::abs(double(y[o] - ref[o])) / scale);
    }
  }
  EXPECT_LT(rel_err.mean(), 0.15);
}

TEST(CimTile, ZeroInputGivesZeroOutput) {
  CimTile tile(small_tile());
  tile.program_weights(random_weights(8, 16, 4, 11));
  std::vector<std::uint32_t> x(16, 0);
  for (const long y : tile.vmm_int(x, 4)) EXPECT_EQ(y, 0);
}

TEST(CimTile, LowAdcResolutionDegradesAccuracy) {
  auto hi_cfg = small_tile();
  hi_cfg.tile.adc_bits = 12;
  auto lo_cfg = small_tile();
  lo_cfg.tile.adc_bits = 3;

  const auto w = random_weights(8, 16, 4, 13);
  CimTile hi(hi_cfg), lo(lo_cfg);
  hi.program_weights(w);
  lo.program_weights(w);

  util::Rng rng(15);
  util::RunningStats err_hi, err_lo;
  for (int t = 0; t < 10; ++t) {
    std::vector<std::uint32_t> x(16);
    for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(16));
    const auto ref = hi.ideal_vmm_int(x);
    const auto yh = hi.vmm_int(x, 4);
    const auto yl = lo.vmm_int(x, 4);
    for (std::size_t o = 0; o < 8; ++o) {
      err_hi.add(std::abs(double(yh[o] - ref[o])));
      err_lo.add(std::abs(double(yl[o] - ref[o])));
    }
  }
  EXPECT_GT(err_lo.mean(), err_hi.mean());
}

TEST(CimTile, EnergyDominatedByAdc) {
  // Fig. 5's power story holds at tile level too.
  CimTile tile(small_tile());
  tile.program_weights(random_weights(8, 16, 4, 17));
  std::vector<std::uint32_t> x(16, 7);
  (void)tile.vmm_int(x, 8);
  const auto& s = tile.stats();
  EXPECT_GT(s.adc_energy_pj, s.array_energy_pj);
  EXPECT_GT(s.adc_energy_pj, s.dac_energy_pj);
  EXPECT_NEAR(s.energy_pj,
              s.adc_energy_pj + s.array_energy_pj + s.dac_energy_pj +
                  s.digital_energy_pj,
              1e-6);
}

TEST(CimTile, CyclesEqualInputBits) {
  CimTile tile(small_tile());
  tile.program_weights(random_weights(8, 16, 4, 19));
  std::vector<std::uint32_t> x(16, 3);
  (void)tile.vmm_int(x, 6);
  EXPECT_EQ(tile.stats().cycles, 6u);
  EXPECT_EQ(tile.stats().vmm_ops, 1u);
}

TEST(CimTile, FaultsSkewResults) {
  const auto w = random_weights(8, 16, 4, 21);
  CimTile clean(small_tile()), faulty(small_tile());
  clean.program_weights(w);

  util::Rng rng(23);
  const auto map = fault::FaultMap::from_yield(
      16, 8, 0.7, fault::FaultMix::stuck_at_only(), rng);
  faulty.apply_faults(map, map);
  faulty.program_weights(w);

  std::vector<std::uint32_t> x(16, 10);
  const auto ref = clean.ideal_vmm_int(x);
  const auto yc = clean.vmm_int(x, 4);
  const auto yf = faulty.vmm_int(x, 4);
  double err_c = 0.0, err_f = 0.0;
  for (std::size_t o = 0; o < 8; ++o) {
    err_c += std::abs(double(yc[o] - ref[o]));
    err_f += std::abs(double(yf[o] - ref[o]));
  }
  EXPECT_GT(err_f, err_c);
}

TEST(CimTile, AreaIncludesPeriphery) {
  CimTile tile(small_tile());
  EXPECT_GT(tile.area_um2(), 0.0);
}

TEST(CimTile, ShapeValidation) {
  CimTile tile(small_tile());
  util::Matrix wrong(3, 3, 0.0);
  EXPECT_THROW(tile.program_weights(wrong), std::invalid_argument);
  std::vector<std::uint32_t> bad(5, 0);
  EXPECT_THROW((void)tile.vmm_int(bad, 4), std::invalid_argument);
  std::vector<std::uint32_t> ok(16, 0);
  EXPECT_THROW((void)tile.vmm_int(ok, 0), std::invalid_argument);
}

TEST(CimTile, VmmLatencyMatchesChargedTime) {
  // The serve controller schedules every request with vmm_latency_ns; one
  // vmm_int on a fresh tile must charge exactly that much simulated time.
  // 3 ADCs do not divide 7 columns, so the conversion slots round up.
  for (const auto kind :
       {periphery::AdcKind::kSar, periphery::AdcKind::kFlash}) {
    for (int bits = 1; bits <= 16; ++bits) {
      auto cfg = small_tile(16, 7);
      cfg.tile.adc_kind = kind;
      cfg.tile.adcs = 3;
      CimTile tile(cfg);
      tile.program_weights(random_weights(7, 16, 4, 31));
      std::vector<std::uint32_t> x(16);
      util::Rng rng(static_cast<std::uint64_t>(bits));
      for (auto& v : x)
        v = static_cast<std::uint32_t>(rng.uniform_int(1u << bits));
      ASSERT_EQ(tile.stats().time_ns, 0.0);
      (void)tile.vmm_int(x, bits);
      const double expected = tile.vmm_latency_ns(bits);
      EXPECT_NEAR(tile.stats().time_ns, expected, 1e-12 * expected)
          << "bits=" << bits;
    }
  }
}

TEST(CimTile, StatsCountEveryBitCycle) {
  CimTile tile(small_tile());
  tile.program_weights(random_weights(8, 16, 4, 25));
  std::vector<std::uint32_t> x(16, 1);
  (void)tile.vmm_int(x, 4);
  (void)tile.vmm_int(x, 3);
  const CimTileStats& s = tile.stats();
  EXPECT_EQ(s.vmm_ops, 2u);
  EXPECT_EQ(s.cycles, 7u);  // one per input bit
  EXPECT_DOUBLE_EQ(s.time_ns, tile.vmm_latency_ns(4) + tile.vmm_latency_ns(3));
  EXPECT_DOUBLE_EQ(s.energy_pj, s.array_energy_pj + s.adc_energy_pj +
                                    s.dac_energy_pj + s.digital_energy_pj);
}

}  // namespace
}  // namespace cim::core
