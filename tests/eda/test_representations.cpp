/// Cross-representation property tests: for random functions, every
/// intermediate representation of the Fig. 8 flow (AIG, MIG, BDD, ESOP) and
/// every mapping path must agree with the source truth table. The device
/// rows keep the cell model checked: the word-level verifiers never build a
/// crossbar, so each family's device executor is run here instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "eda/aig.hpp"
#include "eda/bdd.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/esop.hpp"
#include "eda/esop_mapper.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "util/rng.hpp"

namespace cim::eda {
namespace {

/// Runs `exec(xbar, assignment)` for every assignment on a rows x cols
/// crossbar (STT-MRAM, binary, no IR drop) and compares every output with
/// the specification. Each assignment gets a fresh array unless
/// `reuse_array`, when one array carries each assignment's cell states into
/// the next.
template <class Exec>
bool device_matches(const std::vector<TruthTable>& spec, std::size_t inputs,
                    std::size_t rows, std::size_t cols, Exec&& exec,
                    bool reuse_array = false) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = std::max<std::size_t>(1, cols);
  cfg.tech = device::Technology::kSttMram;
  cfg.levels = 2;
  cfg.model_ir_drop = false;
  std::optional<crossbar::Crossbar> xbar;
  for (std::uint64_t a = 0; a < (1ULL << inputs); ++a) {
    if (!xbar || !reuse_array) xbar.emplace(cfg);
    const std::vector<bool> out = exec(*xbar, a);
    if (out.size() != spec.size()) return false;
    for (std::size_t o = 0; o < out.size(); ++o)
      if (out[o] != spec[o].get(a)) return false;
  }
  return true;
}

/// Runs the assembled ReVAMP program of `mig` through the device executor.
bool revamp_matches_on_device(const Mig& mig,
                              const std::vector<TruthTable>& spec,
                              bool reuse_array = false) {
  const auto prog = assemble_revamp(mig, schedule_revamp(mig));
  return device_matches(
      spec, mig.num_inputs(), prog.wordlines, prog.bitlines,
      [&](crossbar::Crossbar& x, std::uint64_t a) {
        return execute_revamp_program(x, prog, a);
      },
      reuse_array);
}

class CrossRepresentation : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  TruthTable random_tt(int vars) {
    util::Rng rng(GetParam() * 77 + 13);
    TruthTable tt(vars);
    for (std::uint64_t m = 0; m < tt.size(); ++m)
      if (rng.bernoulli(0.5)) tt.set(m, true);
    return tt;
  }
};

TEST_P(CrossRepresentation, AllRepresentationsAgree) {
  const auto tt = random_tt(5);

  const auto aig = Aig::from_truth_table(tt);
  EXPECT_TRUE(aig.truth_tables()[0] == tt);

  const auto mig = Mig::from_aig(aig);
  EXPECT_TRUE(mig.truth_tables()[0] == tt);

  BddManager bdd(tt.vars());
  EXPECT_TRUE(bdd.to_truth_table(bdd.from_truth_table(tt)) == tt);

  const auto esop = Esop::from_truth_table(tt);
  EXPECT_TRUE(esop.to_truth_table() == tt);
}

TEST_P(CrossRepresentation, AllMappingPathsAgree) {
  const auto tt = random_tt(4);
  const auto aig = Aig::from_truth_table(tt);
  const auto mig = Mig::from_aig(aig);

  // IMPLY path.
  EXPECT_TRUE(verify_imply(compile_imply(aig, true), aig));
  // Majority path (word-level and on-crossbar).
  EXPECT_TRUE(verify_revamp(assemble_revamp(mig, schedule_revamp(mig)), mig));
  EXPECT_TRUE(revamp_matches_on_device(mig, {tt}));
  // MAGIC path.
  const auto nor = aig.to_netlist().to_nor_only();
  EXPECT_TRUE(verify_magic(compile_magic(nor, true), nor));
  // ESOP path.
  EXPECT_TRUE(verify_esop(compile_esop(Esop::from_truth_table(tt))));
}

TEST_P(CrossRepresentation, BddSatCountMatchesTruthTable) {
  const auto tt = random_tt(6);
  BddManager bdd(tt.vars());
  EXPECT_EQ(bdd.sat_count(bdd.from_truth_table(tt)), tt.count_ones());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossRepresentation,
                         ::testing::Range<std::uint64_t>(0, 10));

const std::vector<BenchmarkCircuit>& suite() {
  static const auto s = standard_suite();
  return s;
}

/// Suite circuits small enough to run every assignment on the device.
std::vector<std::size_t> device_sized_circuits() {
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < suite().size(); ++i)
    if (suite()[i].netlist.num_inputs() <= 8) ids.push_back(i);
  return ids;
}

/// The IMPLY and MAGIC programs (as the flow maps them) run through their
/// family's device executor and must reproduce the circuit's truth tables.
class DeviceExecution : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceExecution, ImplyAndMagicMatchSpec) {
  const auto& bc = suite()[GetParam()];
  const auto spec = bc.netlist.truth_tables();
  const std::size_t n = bc.netlist.num_inputs();
  const auto aig = Aig::from_netlist(bc.netlist);

  const auto imply = compile_imply(aig, true);
  EXPECT_TRUE(device_matches(spec, n, 1, imply.num_cells,
                             [&](crossbar::Crossbar& x, std::uint64_t a) {
                               return execute_imply(x, imply, a);
                             }))
      << bc.name << " IMPLY";

  const auto nor = aig.to_netlist().to_nor_only();
  const auto magic = compile_magic(nor, true);
  EXPECT_TRUE(device_matches(spec, n, 1, magic.num_cells,
                             [&](crossbar::Crossbar& x, std::uint64_t a) {
                               return execute_magic(x, magic, a);
                             }))
      << bc.name << " MAGIC";
}

INSTANTIATE_TEST_SUITE_P(Circuits, DeviceExecution,
                         ::testing::ValuesIn(device_sized_circuits()));

/// The majority family's device row: the assembled ReVAMP program runs
/// through execute_revamp_program on a fresh array per assignment.
class RevampIsaSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RevampIsaSuite, AssembledProgramVerifies) {
  const auto& bc = suite()[GetParam()];
  EXPECT_TRUE(revamp_matches_on_device(
      Mig::from_aig(Aig::from_netlist(bc.netlist)), bc.netlist.truth_tables()))
      << bc.name;
}

INSTANTIATE_TEST_SUITE_P(Circuits, RevampIsaSuite,
                         ::testing::ValuesIn(device_sized_circuits()));

/// The same program run back to back on one array: each assignment starts
/// from the cell states the previous one left, so the program must
/// initialise every cell it reads.
class MajorityOnCrossbar : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MajorityOnCrossbar, HardwareExecutionVerifies) {
  const auto& bc = suite()[GetParam()];
  EXPECT_TRUE(revamp_matches_on_device(
      Mig::from_aig(Aig::from_netlist(bc.netlist)), bc.netlist.truth_tables(),
      /*reuse_array=*/true))
      << bc.name;
}

INSTANTIATE_TEST_SUITE_P(Circuits, MajorityOnCrossbar,
                         ::testing::ValuesIn(device_sized_circuits()));

}  // namespace
}  // namespace cim::eda
