/// Golden regression of CimTile::vmm_int: the outputs and every
/// CimTileStats field, printed at %.17g, over tiers 0/1/2 x ADC 3/8/12 bits
/// x 7/13/32 columns x IR drop off/on x without/with stuck-at faults, five
/// calls of 1-8 input bits each. Any change to the tile's bit-serial loop
/// must keep every line byte-identical.
///
/// tests/data/tile_vmm_int.golden was written once by the disabled case
/// below, and is never rewritten by the test suite:
///
///   build/tests/test_simd --gtest_also_run_disabled_tests
///       --gtest_filter=TileGolden.DISABLED_DumpGolden
///
/// The dump runs the grid under every kernel table the host supports and
/// requires identical lines from each, so one golden serves every CIM_SIMD
/// setting. The comparing case runs under the `simd` label, so
/// scripts/run_simd_matrix.sh checks it under every table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/cim_tile.hpp"
#include "fault/fault_map.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

namespace cim::core {
namespace {

const char* const kGoldenPath = CIM_TEST_DATA_DIR "/tile_vmm_int.golden";

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One line per vmm_int call over the whole grid, under the active table.
std::vector<std::string> run_grid() {
  using crossbar::FidelityTier;
  constexpr std::size_t kRows = 16;
  constexpr int kCallBits[] = {1, 3, 5, 8, 2};
  std::vector<std::string> lines;
  std::uint64_t config = 0;
  for (const FidelityTier tier :
       {FidelityTier::kFull, FidelityTier::kCalibrated, FidelityTier::kIdeal})
    for (const int adc_bits : {3, 8, 12})
      for (const std::size_t cols : {std::size_t{7}, std::size_t{13},
                                     std::size_t{32}})
        for (const bool ir_drop : {false, true})
          for (const bool faults : {false, true}) {
            ++config;
            CimTileConfig cfg;
            cfg.tile.rows = kRows;
            cfg.tile.cols = cols;
            cfg.tile.adc_bits = adc_bits;
            cfg.tile.adcs = 2;
            cfg.weight_bits = 4;
            cfg.array.model_ir_drop = ir_drop;
            cfg.seed = 1000 + config;
            CimTile tile(cfg);
            util::Rng rng(config);
            if (faults) {
              const auto mix = fault::FaultMix::stuck_at_only();
              const auto plus =
                  fault::FaultMap::from_yield(kRows, cols, 0.9, mix, rng);
              const auto minus =
                  fault::FaultMap::from_yield(kRows, cols, 0.9, mix, rng);
              tile.apply_faults(plus, minus);
            }
            util::Matrix w(cols, kRows);
            for (auto& v : w.flat())
              v = static_cast<double>(
                  static_cast<long>(rng.uniform_int(31)) - 15);
            tile.program_weights(w);

            for (std::size_t call = 0; call < std::size(kCallBits); ++call) {
              const int bits = kCallBits[call];
              std::vector<std::uint32_t> x(kRows);
              for (auto& v : x)
                v = static_cast<std::uint32_t>(rng.uniform_int(1u << bits));
              const auto y = tile.vmm_int(x, bits, tier);
              const CimTileStats& s = tile.stats();
              std::string line = "tier=" +
                                 std::to_string(static_cast<int>(tier)) +
                                 " adc=" + std::to_string(adc_bits) +
                                 " cols=" + std::to_string(cols) +
                                 " ir=" + std::to_string(ir_drop) +
                                 " faults=" + std::to_string(faults) +
                                 " call=" + std::to_string(call) +
                                 " bits=" + std::to_string(bits) + " y=";
              for (std::size_t c = 0; c < y.size(); ++c)
                line += (c == 0 ? "" : ",") + std::to_string(y[c]);
              line += " vmm_ops=" + std::to_string(s.vmm_ops) +
                      " cycles=" + std::to_string(s.cycles) +
                      " time_ns=" + num(s.time_ns) +
                      " energy_pj=" + num(s.energy_pj) +
                      " array_energy_pj=" + num(s.array_energy_pj) +
                      " adc_energy_pj=" + num(s.adc_energy_pj) +
                      " dac_energy_pj=" + num(s.dac_energy_pj) +
                      " digital_energy_pj=" + num(s.digital_energy_pj);
              lines.push_back(std::move(line));
            }
          }
  return lines;
}

TEST(TileGolden, DISABLED_DumpGolden) {
  namespace simd = util::simd;
  const simd::Isa startup = simd::active_isa();
  std::vector<std::string> lines;
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    auto grid = run_grid();
    if (lines.empty())
      lines = std::move(grid);
    else
      ASSERT_EQ(grid, lines) << "table " << simd::isa_name(isa) << " differs";
  }
  simd::set_isa(startup);

  std::ofstream out(kGoldenPath);
  ASSERT_TRUE(out) << kGoldenPath;
  out << "# cim tile vmm_int golden: tier adc cols ir faults call bits y "
         "stats (%.17g)\n";
  for (const auto& line : lines) out << line << '\n';
  ASSERT_TRUE(out.good());
}

TEST(TileGolden, VmmIntMatchesCheckedInGolden) {
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing " << kGoldenPath;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  const auto actual = run_grid();
  ASSERT_EQ(actual.size(), expected.size());
  int mismatches = 0;
  for (std::size_t k = 0; k < actual.size() && mismatches < 5; ++k) {
    if (actual[k] == expected[k]) continue;
    ++mismatches;
    ADD_FAILURE() << "call " << k << " differs under "
                  << util::simd::active_isa_name() << "\n  golden: "
                  << expected[k] << "\n  actual: " << actual[k];
  }
}

}  // namespace
}  // namespace cim::core
