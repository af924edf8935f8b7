#include <gtest/gtest.h>

#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"

namespace cim::crossbar {
namespace {

CrossbarConfig cfg8() {
  CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.seed = 21;
  return cfg;
}

TEST(CrossbarFaults, Sa0CellReadsZeroForever) {
  Crossbar xbar(cfg8());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kStuckAtZero, 2, 2, 0, 0, 1.0});
  xbar.apply_faults(map);
  xbar.write_bit(2, 2, true);
  EXPECT_FALSE(xbar.read_bit(2, 2));
}

TEST(CrossbarFaults, Sa1CellReadsOneForever) {
  Crossbar xbar(cfg8());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kStuckAtOne, 5, 1, 0, 0, 1.0});
  xbar.apply_faults(map);
  xbar.write_bit(5, 1, false);
  EXPECT_TRUE(xbar.read_bit(5, 1));
}

TEST(CrossbarFaults, OverFormingBehavesAsSa1) {
  Crossbar xbar(cfg8());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kOverForming, 0, 0, 0, 0, 1.0});
  xbar.apply_faults(map);
  xbar.write_bit(0, 0, false);
  EXPECT_TRUE(xbar.read_bit(0, 0));
}

TEST(CrossbarFaults, DecoderFaultRedirectsAccesses) {
  Crossbar xbar(cfg8());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kAddressDecoder, 1, 0, /*aux_row=*/4, 0, 1.0});
  xbar.apply_faults(map);
  // A write addressed to row 1 lands in row 4; reading row 1 also reads
  // row 4, so the cell appears consistent through the faulty decoder...
  xbar.write_bit(1, 3, true);
  EXPECT_TRUE(xbar.read_bit(1, 3));
  // ...but the physical row 4 was modified (visible via the oracle), while
  // physical row 1 was not.
  EXPECT_GT(xbar.true_conductance(4, 3), 0.5 * xbar.tech().g_on_us());
  EXPECT_LT(xbar.true_conductance(1, 3), 0.5 * xbar.tech().g_on_us());
}

TEST(CrossbarFaults, CouplingFaultSetsVictimOnAggressorUpWrite) {
  Crossbar xbar(cfg8());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kCoupling, 3, 3, /*victim=*/3, 4, 1.0});
  xbar.apply_faults(map);
  xbar.write_bit(3, 4, false);  // victim at 0
  xbar.write_bit(3, 3, true);   // aggressor up-transition
  EXPECT_TRUE(xbar.read_bit(3, 4));
}

TEST(CrossbarFaults, CouplingFaultLeavesStuckVictimStuck) {
  CrossbarConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  Crossbar xbar(cfg);
  fault::FaultMap map(4, 4);
  map.add({fault::FaultKind::kStuckAtZero, 1, 2, 0, 0, 1.0});
  map.add({fault::FaultKind::kCoupling, 1, 1, /*victim=*/1, 2, 1.0});
  xbar.apply_faults(map);
  xbar.write_bit(1, 1, true);  // aggressor up-transition
  EXPECT_EQ(xbar.true_conductance(1, 2), xbar.tech().g_off_us());
  EXPECT_FALSE(xbar.read_bit(1, 2));
}

TEST(CrossbarFaults, CouplingFaultInertOnDownWrite) {
  Crossbar xbar(cfg8());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kCoupling, 3, 3, 3, 4, 1.0});
  xbar.apply_faults(map);
  xbar.write_bit(3, 4, false);
  xbar.write_bit(3, 3, false);  // down write: no coupling pulse
  EXPECT_FALSE(xbar.read_bit(3, 4));
}

TEST(CrossbarFaults, SizeMismatchThrows) {
  Crossbar xbar(cfg8());
  fault::FaultMap wrong(4, 4);
  EXPECT_THROW(xbar.apply_faults(wrong), std::invalid_argument);
}

TEST(CrossbarFaults, StuckCellsDistortVmm) {
  auto cfg = cfg8();
  cfg.verified_writes = true;
  Crossbar clean(cfg), faulty(cfg);
  util::Matrix lv(8, 8, 8.0);
  clean.program_levels(lv);

  fault::FaultMap map(8, 8);
  for (std::size_t c = 0; c < 8; ++c)
    map.add({fault::FaultKind::kStuckAtOne, 0, c, 0, 0, 1.0});
  faulty.apply_faults(map);
  faulty.program_levels(lv);

  std::vector<double> v(8, 0.2);
  const auto ic = clean.vmm(v);
  const auto if_ = faulty.vmm(v);
  double sum_c = 0.0, sum_f = 0.0;
  for (std::size_t c = 0; c < 8; ++c) {
    sum_c += ic[c];
    sum_f += if_[c];
  }
  EXPECT_GT(sum_f, sum_c * 1.02);  // SA1 row pulls extra current
}

// A tier-0 read disturb moves neither stuck state, and no disturbed cell
// passes g_on.
TEST(CrossbarFaults, ReadDisturbSkipsStuckCellsAndCapsAtGOn) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 4;
  cfg.tech = device::Technology::kReRamHfOx;
  cfg.seed = 21;
  auto tech = device::technology_params(cfg.tech);
  tech.read_disturb_prob = 0.5;
  cfg.tech_override = tech;
  Crossbar xbar(cfg);
  util::Matrix lv(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      lv(r, c) = static_cast<double>(cfg.levels - 4 + (r + c) % 4);
  xbar.program_levels(lv);
  fault::FaultMap map(4, 4);
  map.add({fault::FaultKind::kStuckAtZero, 1, 1, 0, 0, 1.0});
  map.add({fault::FaultKind::kStuckAtOne, 2, 2, 0, 0, 1.0});
  xbar.apply_faults(map);

  const std::vector<double> v(4, xbar.tech().v_read);
  for (int i = 0; i < 20; ++i) (void)xbar.vmm(v);

  const double g_on = xbar.tech().g_on_us();
  EXPECT_EQ(xbar.true_conductance(1, 1), xbar.tech().g_off_us());
  EXPECT_EQ(xbar.true_conductance(2, 2), g_on);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_LE(xbar.true_conductance(r, c), g_on) << r << "," << c;
}

TEST(CrossbarFaults, FaultMapAccessibleAfterApply) {
  Crossbar xbar(cfg8());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kStuckAtZero, 1, 1, 0, 0, 1.0});
  xbar.apply_faults(map);
  EXPECT_EQ(xbar.faults().cell_fault_count(), 1u);
}

}  // namespace
}  // namespace cim::crossbar
