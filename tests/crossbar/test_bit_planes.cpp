// Differential test of Crossbar::vmm_bit_planes: one fused read of every
// input bit plane must equal `planes` calls of vmm() on the sliced
// wordline voltages, in plane order, bit for bit. Two identically
// configured arrays run side by side — one fused, one per plane — and after
// every call the test compares every current, each plane's energy against
// last_op_energy_pj() after the matching vmm(), every CrossbarStats field,
// the next draws of a copy of each array's RNG, and every cell's stored
// conductance.
//
// The grid crosses tiers 0/1/2 with read-disturb probabilities 1e-6 to 0.3
// (tech_override), passive arrays, IR drop and stuck-at faults, over
// rows 1/16/64/70 x cols 1/7/32/64, each array pair taking calls of
// 1/4/8/16 planes, a call at v = 0, and single-cell writes in between so
// calls start with a pending cache repair. At the high disturb rates
// nearly every tier-0 plane dirties cells, so this is the coverage of the
// fused read's fall back to one-plane reads of the repaired array.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "device/technology.hpp"
#include "fault/fault_map.hpp"
#include "same_state.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace cim::crossbar {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

CrossbarConfig make_config(std::size_t rows, std::size_t cols,
                           double disturb, bool passive, bool ir_drop,
                           std::uint64_t seed) {
  CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.passive_array = passive;
  cfg.model_ir_drop = ir_drop;
  cfg.seed = seed;
  auto tech = device::technology_params(cfg.tech);
  tech.read_disturb_prob = disturb;
  cfg.tech_override = tech;
  return cfg;
}

/// One fused call on `fused` against `planes` vmm() calls on `split`.
void expect_same_read(Crossbar& fused, Crossbar& split,
                      std::span<const std::uint32_t> inputs, int planes,
                      double v, FidelityTier tier) {
  const std::size_t cols = fused.cols();
  const auto np = static_cast<std::size_t>(planes);
  std::vector<double> currents(np * cols, -1.0);
  std::vector<double> energy(np, -1.0);
  fused.vmm_bit_planes(inputs, planes, v, currents, energy, tier);

  std::vector<double> volts(fused.rows());
  std::vector<double> expected(cols);
  for (std::size_t b = 0; b < np; ++b) {
    for (std::size_t r = 0; r < volts.size(); ++r)
      volts[r] = ((inputs[r] >> b) & 1u) != 0 ? v : 0.0;
    split.vmm(volts, expected, tier);
    ASSERT_EQ(bits(energy[b]), bits(split.last_op_energy_pj()))
        << "energy of plane " << b;
    for (std::size_t c = 0; c < cols; ++c)
      ASSERT_EQ(bits(currents[b * cols + c]), bits(expected[c]))
          << "plane " << b << " column " << c;
  }
  expect_same_state(fused, split);
}

class BitPlanesDifferential
    : public ::testing::TestWithParam<std::tuple<FidelityTier, double>> {};

TEST_P(BitPlanesDifferential, MatchesPerPlaneVmmBitwise) {
  const auto [tier, disturb] = GetParam();
  std::uint64_t config = 0;
  for (const bool passive : {false, true})
    for (const bool ir_drop : {false, true})
      for (const bool faults : {false, true})
        for (const std::size_t rows : {1, 16, 64, 70})
          for (const std::size_t cols : {1, 7, 32, 64}) {
            ++config;
            SCOPED_TRACE(::testing::Message()
                         << "passive=" << passive << " ir=" << ir_drop
                         << " faults=" << faults << " rows=" << rows
                         << " cols=" << cols);
            const auto cfg = make_config(rows, cols, disturb, passive,
                                         ir_drop, 7000 + config);
            Crossbar fused(cfg);
            Crossbar split(cfg);
            util::Rng rng(config * 131 + static_cast<std::uint64_t>(tier));
            if (faults) {
              const auto map = fault::FaultMap::from_yield(
                  rows, cols, 0.9, fault::FaultMix::stuck_at_only(), rng);
              fused.apply_faults(map);
              split.apply_faults(map);
            }
            util::Matrix levels(rows, cols);
            for (auto& x : levels.flat())
              x = static_cast<double>(rng.uniform_int(16));
            fused.program_levels(levels);
            split.program_levels(levels);

            const double v_read = fused.tech().v_read;
            std::vector<std::uint32_t> inputs(rows);
            for (const int planes : {1, 4, 8, 16}) {
              for (int call = 0; call < 2; ++call) {
                // Bits above `planes` are set too: they must be ignored.
                for (auto& x : inputs)
                  x = static_cast<std::uint32_t>(rng.uniform_int(1u << 20));
                expect_same_read(fused, split, inputs, planes, v_read, tier);
                if (::testing::Test::HasFatalFailure()) return;
                // A write between calls leaves a cache repair pending.
                const std::size_t r = rng.uniform_int(rows);
                const std::size_t c = rng.uniform_int(cols);
                const double g = fused.scheme().level_conductance_us(
                    static_cast<int>(rng.uniform_int(16)));
                fused.program_cell(r, c, g);
                split.program_cell(r, c, g);
              }
            }
            expect_same_read(fused, split, inputs, 4, 0.0, tier);
            if (::testing::Test::HasFatalFailure()) return;
          }
}

INSTANTIATE_TEST_SUITE_P(
    TiersByDisturb, BitPlanesDifferential,
    ::testing::Combine(::testing::Values(FidelityTier::kFull,
                                         FidelityTier::kCalibrated,
                                         FidelityTier::kIdeal),
                       ::testing::Values(1e-6, 1e-3, 2e-2, 0.3)),
    [](const ::testing::TestParamInfo<BitPlanesDifferential::ParamType>& p) {
      // e.g. "full_disturb_0_001000"
      std::string name = std::string(tier_name(std::get<0>(p.param))) +
                         "_disturb_" + std::to_string(std::get<1>(p.param));
      for (char& ch : name)
        if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
      return name;
    });

TEST(BitPlanes, ArgumentErrorsThrow) {
  CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 4;
  Crossbar x(cfg);
  std::vector<std::uint32_t> inputs(8, 5);
  std::vector<double> currents(4 * 4);
  std::vector<double> energy(4);
  for (const FidelityTier tier : {FidelityTier::kFull,
                                  FidelityTier::kCalibrated,
                                  FidelityTier::kIdeal}) {
    EXPECT_NO_THROW(x.vmm_bit_planes(inputs, 4, 0.2, currents, energy, tier));
    for (const int planes : {0, -1, 17}) {
      std::vector<double> cur(std::size_t{4} * 17);
      std::vector<double> e(17);
      EXPECT_THROW(x.vmm_bit_planes(inputs, planes, 0.2, cur, e, tier),
                   std::invalid_argument)
          << "planes=" << planes;
    }
    std::vector<std::uint32_t> short_inputs(7, 5);
    EXPECT_THROW(
        x.vmm_bit_planes(short_inputs, 4, 0.2, currents, energy, tier),
        std::invalid_argument);
    std::vector<double> short_currents(4 * 4 - 1);
    EXPECT_THROW(
        x.vmm_bit_planes(inputs, 4, 0.2, short_currents, energy, tier),
        std::invalid_argument);
    std::vector<double> long_energy(5);
    EXPECT_THROW(
        x.vmm_bit_planes(inputs, 4, 0.2, currents, long_energy, tier),
        std::invalid_argument);
  }
  // A rejected call reads nothing.
  EXPECT_EQ(x.stats().vmm_ops, 3u * 4u);
}

}  // namespace
}  // namespace cim::crossbar
