/// Cross-tile hazard analysis (eda/verify/hazard.hpp): one minimal failing
/// schedule per diagnostic rule, the serialization/isolation laws that make
/// correct schedules clean, and the zero-false-positive sweep over every
/// mapper output of the bench-circuit suite.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/access.hpp"
#include "eda/verify/hazard.hpp"

namespace cim::eda::verify {
namespace {

/// A 1 x `cols` synthetic program footprint with explicit access patterns.
ProgramAccess make_access(std::size_t cols, std::vector<std::size_t> reads,
                          std::vector<std::size_t> writes,
                          std::vector<std::size_t> sensed = {},
                          bool drives_row = false) {
  ProgramAccess a;
  a.rows = 1;
  a.cols = cols;
  a.write_bound.assign(cols, 0);
  a.read.assign(cols, 0);
  a.written.assign(cols, 0);
  a.sensed_cols.assign(cols, 0);
  a.driven_rows.assign(1, drives_row ? 1 : 0);
  for (const auto c : reads) a.read[c] = 1;
  for (const auto c : writes) {
    a.written[c] = 1;
    a.write_bound[c] = 1;
    ++a.total_writes;
  }
  for (const auto c : sensed) {
    a.sensed_cols[c] = 1;
    ++a.sensed_reads;
  }
  return a;
}

ScheduledProgram place(std::string name, const ProgramAccess& access,
                       std::size_t tile, double start, double duration,
                       std::size_t col0 = 0) {
  ScheduledProgram p;
  p.name = std::move(name);
  p.tile = tile;
  p.col0 = col0;
  p.start = start;
  p.duration = duration;
  p.access = access;
  return p;
}

TilePool one_tile(std::size_t cols, std::size_t adcs = 8) {
  TilePool pool;
  pool.tiles.push_back({1, cols, adcs});
  return pool;
}

TEST(HazardMinimal, RawHazardWhenLaterProgramReadsEarlierWrites) {
  const auto writer = make_access(4, {}, {0});
  const auto reader = make_access(4, {0}, {});
  const auto rep = analyze_hazards(
      one_tile(4), {place("w", writer, 0, 0.0, 10.0),
                    place("r", reader, 0, 5.0, 10.0)});
  EXPECT_EQ(rep.count(Rule::kRawHazard), 1u);
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.diagnostics[0].cell, 0u);
  EXPECT_NE(rep.diagnostics[0].message.find("'w'"), std::string::npos);
  EXPECT_NE(rep.diagnostics[0].message.find("'r'"), std::string::npos);
}

TEST(HazardMinimal, WawHazardWhenBothProgramsWriteTheSameCell) {
  const auto a = make_access(4, {}, {2});
  const auto b = make_access(4, {}, {2});
  const auto rep = analyze_hazards(
      one_tile(4),
      {place("a", a, 0, 0.0, 10.0), place("b", b, 0, 5.0, 10.0)});
  EXPECT_EQ(rep.count(Rule::kWawHazard), 1u);
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.diagnostics[0].cell, 2u);
}

TEST(HazardMinimal, WarHazardWhenLaterProgramWritesEarlierReads) {
  const auto reader = make_access(4, {1}, {});
  const auto writer = make_access(4, {}, {1});
  const auto rep = analyze_hazards(
      one_tile(4), {place("r", reader, 0, 0.0, 10.0),
                    place("w", writer, 0, 5.0, 10.0)});
  EXPECT_EQ(rep.count(Rule::kWarHazard), 1u);
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.diagnostics[0].cell, 1u);
}

TEST(HazardMinimal, RawWarClassificationFollowsStartOrderNotListOrder) {
  // Same pair as above but passed later-first: classification must still
  // name the *earlier* program as the writer side of RAW.
  const auto writer = make_access(4, {}, {0});
  const auto reader = make_access(4, {0}, {});
  const auto rep = analyze_hazards(
      one_tile(4), {place("r", reader, 0, 5.0, 10.0),
                    place("w", writer, 0, 0.0, 10.0)});
  EXPECT_EQ(rep.count(Rule::kRawHazard), 1u);
  EXPECT_EQ(rep.count(Rule::kWarHazard), 0u);
}

TEST(HazardMinimal, SharedAdcChannelConflictAcrossColumnMux) {
  // 8 physical ADCs: absolute columns 0 and 8 mux onto channel 0. The two
  // programs touch disjoint cells, so the only contention is the ADC.
  const auto a = make_access(1, {0}, {}, /*sensed=*/{0});
  const auto b = make_access(1, {0}, {}, /*sensed=*/{0});
  const auto rep = analyze_hazards(
      one_tile(16, 8), {place("a", a, 0, 0.0, 10.0, /*col0=*/0),
                        place("b", b, 0, 0.0, 10.0, /*col0=*/8)});
  EXPECT_EQ(rep.count(Rule::kAdcConflict), 1u);
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.diagnostics[0].cell, 0u);  // the contended channel id
}

TEST(HazardMinimal, DisjointAdcChannelsAreClean) {
  const auto a = make_access(1, {0}, {}, {0});
  const auto b = make_access(1, {0}, {}, {0});
  const auto rep = analyze_hazards(
      one_tile(16, 8), {place("a", a, 0, 0.0, 10.0, 0),
                        place("b", b, 0, 0.0, 10.0, 3)});
  EXPECT_EQ(rep.count(Rule::kAdcConflict), 0u);
  EXPECT_TRUE(rep.clean());
}

TEST(HazardMinimal, SharedRowDriverIsAWarningNotAnError) {
  // Disjoint cells, no sensing, but both engage the row-0 wordline driver.
  const auto a = make_access(2, {}, {0}, {}, /*drives_row=*/true);
  const auto b = make_access(2, {}, {0}, {}, /*drives_row=*/true);
  const auto rep = analyze_hazards(
      one_tile(8), {place("a", a, 0, 0.0, 10.0, 0),
                    place("b", b, 0, 0.0, 10.0, 4)});
  EXPECT_EQ(rep.count(Rule::kRowDriverConflict), 1u);
  EXPECT_EQ(rep.errors(), 0u);
  EXPECT_EQ(rep.warnings(), 1u);
  EXPECT_TRUE(rep.clean());  // warnings do not make a schedule un-clean
}

TEST(HazardMinimal, OutOfPoolTileAndFootprintOverflowAreErrors) {
  const auto a = make_access(4, {}, {0});
  {
    const auto rep =
        analyze_hazards(one_tile(8), {place("ghost", a, 3, 0.0, 10.0)});
    EXPECT_EQ(rep.count(Rule::kOobCell), 1u);
  }
  {
    // Footprint of 4 columns placed at col0 = 6 of an 8-wide tile.
    const auto rep =
        analyze_hazards(one_tile(8), {place("wide", a, 0, 0.0, 10.0, 6)});
    EXPECT_EQ(rep.count(Rule::kOobCell), 1u);
  }
}

TEST(HazardIsolation, DisjointWindowsOnOneTileAreClean) {
  const auto a = make_access(4, {0}, {0}, {0}, true);
  const auto rep = analyze_hazards(
      one_tile(4), {place("first", a, 0, 0.0, 10.0),
                    place("second", a, 0, 10.0, 10.0)});
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.diagnostics.empty());
}

TEST(HazardIsolation, DifferentTilesNeverConflict) {
  TilePool pool;
  pool.tiles.assign(2, TileInfo{1, 4, 1});
  const auto a = make_access(4, {0}, {0}, {0}, true);
  const auto rep = analyze_hazards(
      pool, {place("left", a, 0, 0.0, 10.0), place("right", a, 1, 0.0, 10.0)});
  EXPECT_TRUE(rep.diagnostics.empty());
}

TEST(HazardIsolation, NonPositiveDurationIsAlwaysActive) {
  const auto w = make_access(4, {}, {0});
  const auto rep = analyze_hazards(
      one_tile(4), {place("open", w, 0, 0.0, 0.0),
                    place("late", w, 0, 1000.0, 1.0)});
  EXPECT_EQ(rep.count(Rule::kWawHazard), 1u);
}

// The zero-false-positive contract: every mapper output of the bench suite,
// scheduled alone or serialized, yields no hazard findings. run_suite's
// cross-tile gate (round-robin pool, per-tile serialized windows) must come
// back clean for the whole standard suite.
TEST(HazardSweep, StandardSuiteSchedulesClean) {
  const auto reports =
      run_suite(standard_suite(), {.reuse_cells = true, .verify = false});
  ASSERT_FALSE(reports.empty());
  for (const auto& r : reports) {
    EXPECT_TRUE(r.hazard_clean)
        << r.circuit << "/" << logic_family_name(r.family);
    EXPECT_EQ(r.hazard_findings, 0u)
        << r.circuit << "/" << logic_family_name(r.family);
  }
}

// Concurrent dispatch of one program against itself on one tile must trip
// every cell-level hazard class at once — the analyzer sees real mapper
// access sets here, not synthetic ones.
TEST(HazardSweep, RealProgramRacesItselfWhenWindowsOverlap) {
  const auto nl = ripple_carry_adder(2);
  const auto aig = Aig::from_netlist(nl);
  const auto prog = compile_imply(aig, true);
  const auto access = access_of(prog);
  TilePool pool;
  pool.tiles.push_back({access.rows, access.cols, 8});
  const auto rep = analyze_hazards(
      pool, {place("self/0", access, 0, 0.0, 0.0),
             place("self/1", access, 0, 0.0, 0.0)});
  EXPECT_FALSE(rep.clean());
  EXPECT_GE(rep.count(Rule::kWawHazard), 1u);
  EXPECT_GE(rep.count(Rule::kRawHazard), 1u);
  EXPECT_GE(rep.count(Rule::kAdcConflict), 1u);
}

}  // namespace
}  // namespace cim::eda::verify
