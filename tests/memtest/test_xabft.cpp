#include "memtest/xabft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace cim::memtest {
namespace {

crossbar::CrossbarConfig cfg() {
  crossbar::CrossbarConfig c;
  c.tech = device::Technology::kReRamHfOx;
  c.levels = 16;
  c.model_ir_drop = false;
  c.seed = 55;
  return c;
}

util::Matrix random_levels(std::size_t n, std::size_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix lv(n, m);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
  return lv;
}

TEST(Xabft, ChecksumsAreExactAtEncode) {
  const auto lv = random_levels(8, 8, 3);
  XabftProtected prot(lv, cfg());
  long total_rows = 0, total_cols = 0;
  for (const long s : prot.row_checksums()) total_rows += s;
  for (const long s : prot.col_checksums()) total_cols += s;
  EXPECT_EQ(total_rows, total_cols);  // both sum the whole matrix
}

TEST(Xabft, CleanMultiplyPassesChecksum) {
  const auto lv = random_levels(8, 8, 5);
  XabftProtected prot(lv, cfg());
  std::vector<double> x(8, 1.0);
  const auto res = prot.multiply(x);
  EXPECT_TRUE(res.checksum_ok);
  // Decoded level sums track the oracle.
  const auto oracle = prot.ideal_multiply(x);
  for (std::size_t c = 0; c < 8; ++c)
    EXPECT_NEAR(res.level_sums[c], oracle[c], 4.0);
}

TEST(Xabft, DetectsLargeStuckFaultInline) {
  auto lv = random_levels(8, 8, 7);
  lv(3, 4) = 14.0;  // high level so SA0 produces a large deviation
  XabftProtected prot(lv, cfg());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kStuckAtZero, 3, 4, 0, 0, 1.0});
  prot.apply_faults(map);
  std::vector<double> x(8, 0.0);
  x[3] = 1.0;  // drive the faulty row
  const auto res = prot.multiply(x);
  EXPECT_FALSE(res.checksum_ok);
  EXPECT_GT(res.residual_levels, 5.0);
}

TEST(Xabft, ScrubLocatesAndReportsSuspects) {
  auto lv = random_levels(8, 8, 9);
  lv(2, 6) = 15.0;
  XabftProtected prot(lv, cfg());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kStuckAtZero, 2, 6, 0, 0, 1.0});
  prot.apply_faults(map);
  const auto rep = prot.scrub();
  EXPECT_FALSE(rep.suspect_rows.empty());
  EXPECT_FALSE(rep.suspect_cols.empty());
  bool found = false;
  for (const auto& fix : rep.corrections)
    if (fix.row == 2 && fix.col == 6) {
      found = true;
      EXPECT_EQ(fix.corrected_level, 15);
      EXPECT_FALSE(fix.reprogram_succeeded);  // hard fault: cannot reprogram
    }
  EXPECT_TRUE(found);
}

TEST(Xabft, ScrubCorrectsSoftError) {
  auto lv = random_levels(8, 8, 11);
  lv(5, 5) = 12.0;
  XabftProtected prot(lv, cfg());
  // Soft upset: the stored conductance drifts to a wrong level, but the
  // cell itself is healthy — scrub must locate and reprogram it.
  prot.array_mutable().program_cell(
      5, 5, prot.array().scheme().level_conductance_us(3));
  const auto rep = prot.scrub();
  bool fixed = false;
  for (const auto& fix : rep.corrections) {
    if (fix.row == 5 && fix.col == 5) {
      fixed = true;
      EXPECT_EQ(fix.observed_level, 3);
      EXPECT_EQ(fix.corrected_level, 12);
      EXPECT_TRUE(fix.reprogram_succeeded);
    }
  }
  EXPECT_TRUE(fixed);
  // Post-scrub, the cell reads its original level again.
  EXPECT_EQ(prot.array().scheme().nearest_level(
                prot.array().true_conductance(5, 5)),
            12);
}

TEST(Xabft, CorrectionRecoversMacAccuracy) {
  auto lv = random_levels(8, 8, 13);
  XabftProtected prot(lv, cfg());
  fault::FaultMap map(8, 8);
  map.add({fault::FaultKind::kStuckAtOne, 1, 2, 0, 0, 1.0});
  prot.apply_faults(map);
  const auto rep = prot.scrub();
  // The SA1 cell is found (it reads level 15 instead of its target).
  bool found = false;
  for (const auto& fix : rep.corrections)
    if (fix.row == 1 && fix.col == 2) found = true;
  if (lv(1, 2) != 15.0) {
    EXPECT_TRUE(found);
  }
}

TEST(Xabft, WrongInputSizeThrows) {
  XabftProtected prot(random_levels(4, 4, 15), cfg());
  std::vector<double> bad(3, 1.0);
  EXPECT_THROW((void)prot.multiply(bad), std::invalid_argument);
  EXPECT_THROW((void)prot.ideal_multiply(bad), std::invalid_argument);
}

TEST(Xabft, LevelOutOfRangeThrows) {
  util::Matrix lv(4, 4, 99.0);
  EXPECT_THROW(XabftProtected(lv, cfg()), std::invalid_argument);
}

// A level that is not an integer in [0, levels) throws before the
// constructor casts it (the last entry, so every earlier one is valid).
class XabftRejectsLevel : public ::testing::TestWithParam<double> {};

TEST_P(XabftRejectsLevel, BeforeAnyCast) {
  util::Matrix lv(4, 4, 3.0);
  lv(3, 3) = GetParam();
  EXPECT_THROW(XabftProtected(lv, cfg()), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    NotAnIntegerLevel, XabftRejectsLevel,
    ::testing::Values(std::nan(""), 2.7, -1.0, 16.0, 1e300,
                      std::numeric_limits<double>::infinity()));

TEST(Xabft, SparseInputOnlySumsSelectedRows) {
  const auto lv = random_levels(8, 8, 17);
  XabftProtected prot(lv, cfg());
  std::vector<double> x(8, 0.0);
  x[0] = 1.0;
  x[7] = 1.0;
  const auto oracle = prot.ideal_multiply(x);
  for (std::size_t c = 0; c < 8; ++c)
    EXPECT_DOUBLE_EQ(oracle[c], lv(0, c) + lv(7, c));
}

}  // namespace
}  // namespace cim::memtest
