#include "fault/defects.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace cim::fault {
namespace {

TEST(Defects, OxidePinholeMapsToSa1) {
  util::Rng rng(3);
  const auto faults =
      map_defect_to_faults({DefectKind::kOxidePinhole, 2, 3}, 8, 8, rng);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, FaultKind::kStuckAtOne);
  EXPECT_EQ(faults[0].row, 2u);
  EXPECT_EQ(faults[0].col, 3u);
}

TEST(Defects, FormingFailureMapsToSa0) {
  util::Rng rng(5);
  const auto faults =
      map_defect_to_faults({DefectKind::kFormingFailure, 0, 0}, 8, 8, rng);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, FaultKind::kStuckAtZero);
}

TEST(Defects, BrokenWordlineAffectsRowTail) {
  // Paper: "a broken word-line ... leads to the SA1 behavior".
  util::Rng rng(7);
  const auto faults =
      map_defect_to_faults({DefectKind::kBrokenWordline, 3, 5}, 8, 8, rng);
  ASSERT_EQ(faults.size(), 3u);  // columns 5, 6, 7
  for (const auto& fd : faults) {
    EXPECT_EQ(fd.kind, FaultKind::kStuckAtOne);
    EXPECT_EQ(fd.row, 3u);
    EXPECT_GE(fd.col, 5u);
  }
}

TEST(Defects, BrokenBitlineAffectsColumnTail) {
  util::Rng rng(9);
  const auto faults =
      map_defect_to_faults({DefectKind::kBrokenBitline, 6, 2}, 8, 8, rng);
  ASSERT_EQ(faults.size(), 2u);  // rows 6, 7
  for (const auto& fd : faults) {
    EXPECT_EQ(fd.kind, FaultKind::kStuckAtZero);
    EXPECT_EQ(fd.col, 2u);
  }
}

TEST(Defects, DecoderDefectAliasesToDifferentRow) {
  util::Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    const auto faults =
        map_defect_to_faults({DefectKind::kDecoderDefect, 4, 0}, 8, 8, rng);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, FaultKind::kAddressDecoder);
    EXPECT_NE(faults[0].aux_row, 4u);
    EXPECT_LT(faults[0].aux_row, 8u);
  }
}

TEST(Defects, BridgeCouplesToHorizontalNeighbour) {
  util::Rng rng(13);
  const auto faults =
      map_defect_to_faults({DefectKind::kCellBridge, 1, 7}, 8, 8, rng);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, FaultKind::kCoupling);
  EXPECT_EQ(faults[0].aux_col, 6u);  // last column bridges left
}

TEST(Defects, NarrowFilamentRaisesWriteVariation) {
  util::Rng rng(15);
  const auto faults =
      map_defect_to_faults({DefectKind::kNarrowFilament, 0, 0}, 8, 8, rng);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, FaultKind::kWriteVariation);
  EXPECT_GE(faults[0].severity, 3.0);
}

TEST(Defects, OutOfArrayThrows) {
  util::Rng rng(17);
  EXPECT_THROW(
      (void)map_defect_to_faults({DefectKind::kOxidePinhole, 8, 0}, 8, 8, rng),
      std::out_of_range);
}

TEST(Defects, DecoderDefectOnOneRowThrows) {
  util::Rng rng(21);
  EXPECT_THROW(
      (void)map_defect_to_faults({DefectKind::kDecoderDefect, 0, 3}, 1, 8, rng),
      std::invalid_argument);
}

TEST(Defects, BridgeOnOneColumnThrows) {
  util::Rng rng(23);
  EXPECT_THROW(
      (void)map_defect_to_faults({DefectKind::kCellBridge, 3, 0}, 8, 1, rng),
      std::invalid_argument);
}

TEST(Defects, InjectDefectsPopulatesMap) {
  util::Rng rng(19);
  const auto map = inject_defects(32, 32, 20, rng);
  EXPECT_FALSE(map.empty());
  // Line breaks expand to multiple cell faults, so usually >= injected count.
  EXPECT_GE(map.all().size(), 10u);
}

TEST(Defects, AllDefectKindsHaveNames) {
  for (const auto k : all_defect_kinds()) EXPECT_NE(defect_name(k), "unknown");
  EXPECT_EQ(all_defect_kinds().size(), 8u);
}

}  // namespace
}  // namespace cim::fault
