/// Golden regression of the crossbar write path (ctest label `cache`).
///
/// One script drives every write entry point — write_bit, program_cell,
/// program_levels, program_conductances, imply, set_false, magic_nor and
/// majority_write — on 1x16, 16x1, 16x16 and 128x128 arrays, at write-disturb
/// probabilities 0, 1e-5, 0.05 and 2, with the incremental cache, device
/// health and verified writes each on in some scenarios and off in others.
/// (write_row is a write_bit loop with the row line left out of its sweeps;
/// WriteDisturbStats.RowWrite* pin it to one.)
/// Every cell wears out on its sixth programming pulse, so the script
/// chooses which write wears a cell out: each entry point wears out its own
/// cell, and a write across that cell's row and one down its column follow.
/// A fault map of every kind the write path honours (stuck-at, over-forming,
/// endurance wear-out, write and read disturb, transition, write variation,
/// coupling and decoder faults) is applied mid-script, then a second map that
/// returns the write-disturb cell to scale 1 and drops the rest.
///
/// After every op one line pins an FNV-1a hash over every cell's stored and
/// target conductance bits, stuck mode and write count, each CrossbarStats
/// field at %.17g and the generator's next word (read from a copy, so the
/// script's own stream is untouched); a read adds a hash of its currents and
/// a scenario with health on adds the monitor's summary. Any change to the
/// half-select sweep's draws, hits or dirty marks, to wear-out or to the
/// write accounting changes a line.
///
/// Tier-0 VMM energy is a reduction whose shape is per kernel table, so
/// `stats=` may differ between tables. The golden holds one line per op,
/// the widest table's, and after it an "@<isa> " line for each table whose
/// line differs; the compare reads the active table's line.
///
/// tests/data/crossbar_write.golden was written once by the disabled case
/// below, on a host that runs every table, and is never rewritten by the
/// test suite:
///
///   build/tests/test_cache_coherence --gtest_also_run_disabled_tests
///       --gtest_filter=WriteGolden.DISABLED_DumpGolden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

namespace cim::crossbar {
namespace {

const char* const kGoldenPath = CIM_TEST_DATA_DIR "/crossbar_write.golden";

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over the bytes of `v`, continuing from `h`.
template <class T>
std::uint64_t fnv1a(std::uint64_t h, const T& v) {
  const auto* b = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof v; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct Scenario {
  std::size_t rows;
  std::size_t cols;
  double write_disturb_prob;
  bool incremental;
  bool health;
  bool verified;
};

// Each shape meets every probability, and each of the three flags is on
// and off for each shape.
constexpr Scenario kScenarios[] = {
    {1, 16, 0.0, true, true, true},       {1, 16, 1e-5, true, false, false},
    {1, 16, 0.05, false, true, false},    {1, 16, 2.0, false, false, true},
    {16, 1, 0.0, false, false, false},    {16, 1, 1e-5, false, true, true},
    {16, 1, 0.05, true, false, true},     {16, 1, 2.0, true, true, false},
    {16, 16, 0.0, true, true, true},      {16, 16, 1e-5, true, false, false},
    {16, 16, 0.05, false, true, false},   {16, 16, 2.0, false, false, true},
    {128, 128, 0.0, false, false, true},  {128, 128, 1e-5, true, true, false},
    {128, 128, 0.05, true, false, false}, {128, 128, 2.0, false, true, true},
};

CrossbarConfig config(const Scenario& s, std::uint64_t seed) {
  CrossbarConfig cfg;
  cfg.rows = s.rows;
  cfg.cols = s.cols;
  cfg.levels = 8;
  cfg.seed = seed;
  cfg.incremental_cache = s.incremental;
  cfg.verified_writes = s.verified;
  device::TechnologyParams tech = device::technology_params(cfg.tech);
  tech.write_disturb_prob = s.write_disturb_prob;
  // No spread: every cell wears out on its sixth programming pulse.
  tech.endurance_mean = 6.5;
  tech.endurance_sigma_log = 0.0;
  cfg.tech_override = tech;
  return cfg;
}

/// One scenario's array and its pinned lines. Coordinates wrap modulo the
/// shape, so the same script runs on every shape.
class Script {
 public:
  Script(const Scenario& s, std::uint64_t seed)
      : s_(s), xbar_(config(s, seed)), ops_(seed ^ 0x5bd1e995ULL) {}

  std::vector<std::string>& lines() { return lines_; }

  std::size_t rand_row() { return ops_.uniform_int(s_.rows); }
  std::size_t rand_col() { return ops_.uniform_int(s_.cols); }
  int rand_level() { return static_cast<int>(ops_.uniform_int(8)); }
  bool rand_bit() { return ops_.bernoulli(0.5); }

  void write_bit(std::size_t i, std::size_t j, bool v) {
    xbar_.write_bit(r(i), c(j), v);
    emit("write_bit " + at(i, j) + " " + std::to_string(v));
  }
  void program_cell(std::size_t i, std::size_t j, int level) {
    (void)xbar_.program_cell(r(i), c(j),
                             xbar_.scheme().level_conductance_us(level));
    emit("program_cell " + at(i, j) + " " + std::to_string(level));
  }
  void program_levels() {
    util::Matrix lv(s_.rows, s_.cols);
    for (double& v : lv.flat()) v = static_cast<double>(rand_level());
    xbar_.program_levels(lv);
    emit("program_levels");
  }
  void program_conductances() {
    const double g_off = xbar_.tech().g_off_us();
    const double g_on = xbar_.tech().g_on_us();
    util::Matrix g(s_.rows, s_.cols);
    for (double& v : g.flat()) v = ops_.uniform(g_off, g_on);
    xbar_.program_conductances(g);
    emit("program_conductances");
  }
  void imply(std::size_t i, std::size_t j, std::size_t si, std::size_t sj) {
    xbar_.imply(r(i), c(j), r(si), c(sj));
    emit("imply " + at(i, j) + " " + at(si, sj));
  }
  void set_false(std::size_t i, std::size_t j) {
    xbar_.set_false(r(i), c(j));
    emit("set_false " + at(i, j));
  }
  void magic_nor(std::size_t i, std::size_t j0, std::size_t j1,
                 std::size_t out) {
    const std::size_t ins[] = {c(j0), c(j1)};
    xbar_.magic_nor(r(i), ins, c(out));
    emit("magic_nor " + at(i, out) + " " + std::to_string(c(j0)) + " " +
         std::to_string(c(j1)));
  }
  void majority_write(std::size_t i, std::size_t j, bool wl, bool bl) {
    xbar_.majority_write(r(i), c(j), wl, bl);
    emit("majority_write " + at(i, j) + " " + std::to_string(wl) +
         std::to_string(bl));
  }
  void apply_faults(const fault::FaultMap& map) {
    xbar_.apply_faults(map);
    emit("apply_faults");
  }
  /// Tier-0 read with 0.2 V on the even rows: repairs the caches and adds
  /// the currents' hash to its line.
  void vmm() {
    std::vector<double> v(s_.rows), out(s_.cols);
    for (std::size_t k = 0; k < s_.rows; ++k) v[k] = k % 2 == 0 ? 0.2 : 0.0;
    xbar_.vmm(v, out);
    std::uint64_t h = kFnvBasis;
    for (const double x : out) h = fnv1a(h, x);
    emit("vmm out=" + hex(h));
  }

  /// A fault descriptor at wrapped coordinates.
  fault::FaultDescriptor fault(fault::FaultKind kind, std::size_t i,
                               std::size_t j, std::size_t ai = 0,
                               std::size_t aj = 0, double severity = 1.0) {
    return {kind, r(i), c(j), r(ai), c(aj), severity};
  }
  fault::FaultMap empty_map() const { return {s_.rows, s_.cols}; }

 private:
  std::size_t r(std::size_t i) const { return i % s_.rows; }
  std::size_t c(std::size_t j) const { return j % s_.cols; }
  std::string at(std::size_t i, std::size_t j) const {
    return std::to_string(r(i)) + "," + std::to_string(c(j));
  }

  void emit(const std::string& op) {
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < s_.rows; ++i)
      for (std::size_t j = 0; j < s_.cols; ++j) {
        const auto& cl = xbar_.cell_state(i, j);
        h = fnv1a(h, cl.true_conductance_us());
        h = fnv1a(h, cl.target_conductance_us());
        h = fnv1a(h, cl.stuck());
        h = fnv1a(h, cl.write_count());
      }
    const CrossbarStats& st = xbar_.stats();
    std::string line = std::to_string(lines_.size()) + " " + op +
                       " cells=" + hex(h) + " stats=";
    for (const double v :
         {static_cast<double>(st.bit_reads), static_cast<double>(st.bit_writes),
          static_cast<double>(st.analog_writes),
          static_cast<double>(st.vmm_ops), static_cast<double>(st.logic_ops),
          st.time_ns, st.energy_pj,
          static_cast<double>(st.cache_full_rebuilds),
          static_cast<double>(st.cache_delta_updates),
          static_cast<double>(st.cache_dirty_cells)})
      line += num(v) + ",";
    util::Rng probe = xbar_.rng();
    line += " rng=" + hex(probe());
    if (s_.health) {
      const auto snap = xbar_.health_monitor().snapshot();
      line += " health=" + std::to_string(snap.total_writes) + "," +
              std::to_string(snap.total_disturbs) + "," +
              std::to_string(snap.max_wear) + "," +
              std::to_string(snap.worn_cells) + "," +
              num(snap.mean_abs_drift_us) + "," + num(snap.max_abs_drift_us);
    }
    lines_.push_back(std::move(line));
  }

  const Scenario& s_;
  Crossbar xbar_;
  util::Rng ops_;
  std::vector<std::string> lines_;
};

void run_script(Script& w) {
  using fault::FaultKind;
  // Programming and random single-cell writes on a fault-free array.
  w.program_levels();
  for (int k = 0; k < 4; ++k)
    w.program_cell(w.rand_row(), w.rand_col(), w.rand_level());
  for (int k = 0; k < 4; ++k)
    w.write_bit(w.rand_row(), w.rand_col(), w.rand_bit());
  w.vmm();

  // Each single-cell entry point wears out its own diagonal cell (h, h),
  // then one write crosses the worn cell's row and one goes down its column.
  for (std::size_t h = 1; h <= 6; ++h) {
    for (int k = 0; k < 6; ++k) {
      const bool odd = k % 2 != 0;
      switch (h) {
        case 1: w.write_bit(h, h, !odd); break;
        case 2: w.program_cell(h, h, odd ? 0 : 7); break;
        case 3:
          if (k == 0) w.set_false(h, h + 8);  // IMPLY source holds 0
          w.imply(h, h, h, h + 8);
          break;
        case 4: w.set_false(h, h); break;
        case 5:
          if (k == 0) w.write_bit(h, h + 8, true);  // a NOR input holds 1
          w.magic_nor(h, h + 8, h + 9, h);
          break;
        default: w.majority_write(h, h, !odd, odd); break;
      }
    }
    w.write_bit(h, h + 3, true);
    w.program_cell(h + 3, h, 4);
  }

  // Wear-out inside the bulk entry points: a cell is set to one pulse short
  // of its limit (with unverified writes), then the whole array is written.
  for (int k = 0; k < 4; ++k) w.set_false(8, 8);
  w.program_conductances();
  w.write_bit(8, 11, true);
  w.program_cell(11, 8, 2);
  for (int k = 0; k < 3; ++k) w.set_false(10, 10);
  w.program_levels();
  w.write_bit(10, 13, true);
  w.program_cell(13, 10, 5);
  w.vmm();

  // Every fault kind the write path honours.
  fault::FaultMap map = w.empty_map();
  map.add(w.fault(FaultKind::kStuckAtZero, 15, 2));
  map.add(w.fault(FaultKind::kStuckAtOne, 15, 5));
  map.add(w.fault(FaultKind::kOverForming, 12, 15));
  map.add(w.fault(FaultKind::kEnduranceWearout, 14, 14));
  map.add(w.fault(FaultKind::kWriteDisturb, 12, 13));
  map.add(w.fault(FaultKind::kReadDisturb, 13, 12));
  map.add(w.fault(FaultKind::kTransitionUp, 9, 11));
  map.add(w.fault(FaultKind::kWriteVariation, 11, 9, 0, 0, 4.0));
  map.add(w.fault(FaultKind::kCoupling, 14, 4, 14, 6));
  map.add(w.fault(FaultKind::kAddressDecoder, 7, 0, 9));
  w.apply_faults(map);
  w.program_cell(15, 7, 3);  // row of two stuck cells
  w.program_cell(9, 2, 6);   // column of a stuck cell
  w.write_bit(12, 0, true);  // row of the write-disturb cell
  w.program_cell(0, 13, 1);  // column of the write-disturb cell
  w.write_bit(14, 4, true);  // coupling aggressor
  w.write_bit(7, 3, true);   // decoded to row 9
  w.program_cell(11, 9, 5);  // write-variation cell
  w.write_bit(9, 11, true);  // transition-up cell
  w.vmm();

  // A second map: the write-disturb cell back to scale 1; the stuck cells of
  // the first map stay stuck although this map does not list them.
  fault::FaultMap second = w.empty_map();
  second.add(w.fault(FaultKind::kReadDisturb, 12, 13));
  w.apply_faults(second);
  w.program_cell(1, 13, 6);
  w.program_cell(15, 8, 2);
  w.write_bit(7, 5, true);
  w.write_bit(12, 1, false);
  w.vmm();

  // A mixed tail over the worn and faulty array.
  w.program_conductances();
  for (int k = 0; k < 4; ++k)
    w.program_cell(w.rand_row(), w.rand_col(), w.rand_level());
  for (int k = 0; k < 4; ++k)
    w.write_bit(w.rand_row(), w.rand_col(), w.rand_bit());
  w.imply(w.rand_row(), w.rand_col(), w.rand_row(), w.rand_col());
  w.magic_nor(w.rand_row(), w.rand_col(), w.rand_col(), w.rand_col());
  w.majority_write(w.rand_row(), w.rand_col(), w.rand_bit(), w.rand_bit());
  w.set_false(w.rand_row(), w.rand_col());
  w.vmm();
}

std::vector<std::string> run_all() {
  std::vector<std::string> lines;
  const obs::Mode mode = obs::mode();
  std::uint64_t seed = 1000;
  for (const Scenario& s : kScenarios) {
    obs::set_mode(s.health ? obs::Mode::kHealth : obs::Mode::kOff);
    char head[120];
    std::snprintf(head, sizeof head,
                  "scenario %zux%zu p=%s incremental=%d health=%d verified=%d",
                  s.rows, s.cols, num(s.write_disturb_prob).c_str(),
                  s.incremental, s.health, s.verified);
    lines.emplace_back(head);
    Script w(s, ++seed);
    run_script(w);
    for (std::string& line : w.lines()) lines.push_back(std::move(line));
  }
  obs::set_mode(mode);
  return lines;
}

TEST(WriteGolden, DISABLED_DumpGolden) {
  const auto isas = util::simd::supported_isas();
  const util::simd::Isa was = util::simd::active_isa();
  std::vector<std::vector<std::string>> runs;
  for (const util::simd::Isa isa : isas) {
    util::simd::set_isa(isa);
    runs.push_back(run_all());
  }
  util::simd::set_isa(was);
  const auto& base = runs.back();
  for (const auto& run : runs) ASSERT_EQ(run.size(), base.size());
  std::ofstream out(kGoldenPath);
  ASSERT_TRUE(out) << kGoldenPath;
  out << "# cim crossbar write-path golden: per op a hash of every cell, the "
         "CrossbarStats (%.17g) and the next generator word\n"
         "# an \"@<isa> \" line replaces the line above under that kernel "
         "table\n";
  for (std::size_t k = 0; k < base.size(); ++k) {
    out << base[k] << '\n';
    for (std::size_t t = 0; t + 1 < runs.size(); ++t)
      if (runs[t][k] != base[k])
        out << '@' << util::simd::isa_name(isas[t]) << ' ' << runs[t][k]
            << '\n';
  }
  ASSERT_TRUE(out.good());
}

TEST(WriteGolden, MatchesCheckedInGolden) {
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing " << kGoldenPath;
  const std::string own =
      std::string("@") + util::simd::active_isa_name() + " ";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] != '@')
      expected.push_back(line);
    else if (line.compare(0, own.size(), own) == 0 && !expected.empty())
      expected.back() = line.substr(own.size());
  }
  const auto actual = run_all();
  ASSERT_EQ(actual.size(), expected.size());
  int mismatches = 0;
  for (std::size_t k = 0; k < actual.size() && mismatches < 5; ++k) {
    if (actual[k] == expected[k]) continue;
    ++mismatches;
    ADD_FAILURE() << "line " << k << " differs under "
                  << util::simd::active_isa_name() << "\n  golden: "
                  << expected[k] << "\n  actual: " << actual[k];
  }
}

}  // namespace
}  // namespace cim::crossbar
