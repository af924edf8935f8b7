#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>

#include "crossbar/crossbar.hpp"

namespace cim::crossbar {
namespace {

CrossbarConfig small_cfg() {
  CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.levels = 16;
  cfg.seed = 99;
  return cfg;
}

TEST(CrossbarBasic, ConstructionAndGeometry) {
  Crossbar xbar(small_cfg());
  EXPECT_EQ(xbar.rows(), 8u);
  EXPECT_EQ(xbar.cols(), 8u);
  EXPECT_EQ(xbar.scheme().levels(), 16);
}

TEST(CrossbarBasic, EmptyConfigThrows) {
  CrossbarConfig cfg;
  cfg.rows = 0;
  EXPECT_THROW(Crossbar{cfg}, std::invalid_argument);
}

TEST(CrossbarBasic, BitRoundTrip) {
  Crossbar xbar(small_cfg());
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      const bool v = (r + c) % 2 == 0;
      xbar.write_bit(r, c, v);
      EXPECT_EQ(xbar.read_bit(r, c), v) << "(" << r << "," << c << ")";
    }
  }
}

TEST(CrossbarBasic, BitOpsOutOfRangeThrow) {
  Crossbar xbar(small_cfg());
  EXPECT_THROW(xbar.write_bit(8, 0, true), std::out_of_range);
  EXPECT_THROW((void)xbar.read_bit(0, 8), std::out_of_range);
}

TEST(CrossbarBasic, ProgramCellHitsTarget) {
  auto cfg = small_cfg();
  cfg.verified_writes = true;
  Crossbar xbar(cfg);
  const double target = xbar.scheme().level_conductance_us(10);
  xbar.program_cell(3, 4, target);
  EXPECT_NEAR(xbar.true_conductance(3, 4), target,
              xbar.scheme().guard_band_us());
}

TEST(CrossbarBasic, ProgramLevelsShapeMismatchThrows) {
  Crossbar xbar(small_cfg());
  util::Matrix wrong(4, 4);
  EXPECT_THROW(xbar.program_levels(wrong), std::invalid_argument);
}

// A level that is not an integer in [0, levels) is rejected before the
// first write: the array and its stats stay untouched.
TEST(CrossbarBasic, ProgramLevelsRejectsNonIntegerLevelsBeforeWriting) {
  Crossbar xbar(small_cfg());
  for (const double bad : {std::nan(""), 2.7, -1.0, 16.0, 1e300,
                           std::numeric_limits<double>::infinity()}) {
    util::Matrix lv(8, 8, 3.0);
    lv(7, 7) = bad;  // the last entry: every earlier one is valid
    EXPECT_THROW(xbar.program_levels(lv), std::invalid_argument) << bad;
  }
  EXPECT_EQ(xbar.stats().analog_writes, 0u);
  EXPECT_EQ(xbar.true_conductance(0, 0), xbar.scheme().g_min_us());
}

TEST(CrossbarBasic, ProgramRejectsNonFiniteConductance) {
  Crossbar xbar(small_cfg());
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)xbar.program_cell(1, 1, nan), std::invalid_argument);
  EXPECT_THROW((void)xbar.program_cell(1, 1, -inf), std::invalid_argument);
  util::Matrix g(8, 8, 50.0);
  g(7, 7) = nan;
  EXPECT_THROW(xbar.program_conductances(g), std::invalid_argument);
  g(7, 7) = inf;
  EXPECT_THROW(xbar.program_conductances(g), std::invalid_argument);
  EXPECT_EQ(xbar.stats().analog_writes, 0u);
  EXPECT_EQ(xbar.true_conductance(0, 0), xbar.scheme().g_min_us());
}

// Each cell points at its array's technology parameters, so an array can
// be neither copied nor moved.
TEST(CrossbarBasic, NeitherCopyNorMoveConstructible) {
  static_assert(!std::is_copy_constructible_v<Crossbar>);
  static_assert(!std::is_move_constructible_v<Crossbar>);
  static_assert(!std::is_copy_assignable_v<Crossbar>);
  static_assert(!std::is_move_assignable_v<Crossbar>);
}

TEST(CrossbarBasic, StatsAccumulate) {
  Crossbar xbar(small_cfg());
  xbar.write_bit(0, 0, true);
  (void)xbar.read_bit(0, 0);
  EXPECT_EQ(xbar.stats().bit_writes, 1u);
  EXPECT_EQ(xbar.stats().bit_reads, 1u);
  EXPECT_GT(xbar.stats().time_ns, 0.0);
  EXPECT_GT(xbar.stats().energy_pj, 0.0);
  xbar.reset_stats();
  EXPECT_EQ(xbar.stats().bit_writes, 0u);
}

TEST(CrossbarBasic, DeterministicAcrossSameSeed) {
  Crossbar a(small_cfg());
  Crossbar b(small_cfg());
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c) {
      a.write_bit(r, c, true);
      b.write_bit(r, c, true);
      EXPECT_DOUBLE_EQ(a.true_conductance(r, c), b.true_conductance(r, c));
    }
}

TEST(CrossbarBasic, LastOpEnergyTracksMostRecentOp) {
  Crossbar xbar(small_cfg());
  xbar.write_bit(0, 0, true);
  const double e_write = xbar.last_op_energy_pj();
  (void)xbar.read_bit(0, 0);
  const double e_read = xbar.last_op_energy_pj();
  EXPECT_GT(e_write, e_read);  // writes cost more than reads
}

}  // namespace
}  // namespace cim::crossbar
