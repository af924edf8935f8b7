/// Golden regression of the static cost certificate and of the artifacts
/// the flow derives on its way there: every CostEstimate field at %.17g
/// (ReVAMP, and IMPLY and MAGIC with reuse_cells off and on, under ReRAM
/// HfOx and PCM), the ReVAMP schedule counters and plan, an FNV-1a hash of
/// each assembled ReVAMP program's listing and def_nodes, and an FNV-1a
/// hash of every Netlist, Aig and Mig truth table. The circuits cover the
/// exact expectation (up to kExactCostInputCap inputs) and the approximate
/// one above it. Hand-built malformed programs and zero-input programs pin
/// the estimator's out-of-range branches.
///
/// The access golden pins an FNV-1a hash of every ProgramAccess field
/// (`access_of`) of the same programs: write bounds, operand reads, sensed
/// columns and driven rows, per cell, beyond the aggregates above. The sets
/// `check_program` records in its cost walk must match the same golden.
///
/// tests/data/eda_cost.golden and tests/data/eda_access.golden were each
/// written once by a disabled case below, and are never rewritten by the
/// test suite:
///
///   build/tests/test_verify --gtest_also_run_disabled_tests
///       --gtest_filter=CostGolden.DISABLED_DumpGolden
///   build/tests/test_verify --gtest_also_run_disabled_tests
///       --gtest_filter=AccessGolden.DISABLED_DumpGolden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "device/technology.hpp"
#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/netlist.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/wear_cost.hpp"
#include "util/rng.hpp"

namespace cim::eda {
namespace {

const char* const kGoldenPath = CIM_TEST_DATA_DIR "/eda_cost.golden";
const char* const kAccessGoldenPath = CIM_TEST_DATA_DIR "/eda_access.golden";

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// 64-bit FNV-1a over bytes; integers are fed little-endian.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string tt_hash(const std::vector<TruthTable>& tts) {
  Fnv f;
  f.u64(tts.size());
  for (const auto& t : tts) {
    f.u64(static_cast<std::uint64_t>(t.vars()));
    for (std::uint64_t k = 0; k < (t.size() + 63) / 64; ++k) f.u64(t.word(k));
  }
  return f.hex();
}

struct Tech {
  const char* name;
  device::TechnologyParams params;
};

std::vector<Tech> techs() {
  return {{"hfox", device::technology_params(device::Technology::kReRamHfOx)},
          {"pcm", device::technology_params(device::Technology::kPcm)}};
}

std::string cost_line(const std::string& tag,
                      const verify::CostEstimate& c) {
  return "  cost " + tag + " time_ns=" + num(c.time_ns) +
         " e_min=" + num(c.energy_pj_min) + " e_max=" + num(c.energy_pj_max) +
         " e_exp=" + num(c.energy_pj_exp) +
         " exact=" + (c.exact_expectation ? "1" : "0") +
         " write_slots=" + std::to_string(c.write_slots) +
         " conditional_ops=" + std::to_string(c.conditional_ops) +
         " sensed_reads=" + std::to_string(c.sensed_reads);
}

/// Every pinned line of one circuit, mapped the way run_flow maps it.
void circuit_lines(const std::string& name, const Netlist& nl,
                   std::vector<std::string>& lines) {
  const Aig aig = Aig::from_netlist(nl);
  const Mig mig = Mig::from_aig(aig);
  const Netlist nor = aig.to_netlist().to_nor_only();
  lines.push_back(name + " inputs=" + std::to_string(nl.num_inputs()) +
                  " outputs=" + std::to_string(nl.num_outputs()));
  lines.push_back("  tt netlist=" + tt_hash(nl.truth_tables()) +
                  " nor=" + tt_hash(nor.truth_tables()) +
                  " aig=" + tt_hash(aig.truth_tables()) +
                  " mig=" + tt_hash(mig.truth_tables()));

  const MajSchedule sched = schedule_revamp(mig);
  Fnv plan;
  for (const auto& p : sched.plan) {
    plan.u64(p.node);
    plan.u64(p.level);
    plan.u64(p.row);
    plan.u64(p.col);
    plan.u64(p.preload);
    plan.u64(p.shared);
    plan.u64(p.per_column);
  }
  lines.push_back(
      "  sched levels=" + std::to_string(sched.num_levels) +
      " devices=" + std::to_string(sched.device_count) +
      " rows=" + std::to_string(sched.rows) +
      " width=" + std::to_string(sched.max_row_width) +
      " reads=" + std::to_string(sched.read_steps) +
      " inits=" + std::to_string(sched.init_steps) +
      " majs=" + std::to_string(sched.maj_steps) +
      " plan=" + std::to_string(sched.plan.size()) + ":" + plan.hex());

  const RevampProgram rv = assemble_revamp(mig, sched);
  Fnv listing;
  listing.str(rv.disassemble());
  Fnv defs;
  for (const auto& ins : rv.instrs) {
    defs.u64(ins.def_nodes.size());
    for (const auto n : ins.def_nodes) defs.u64(n);
  }
  lines.push_back("  revamp instrs=" + std::to_string(rv.instrs.size()) +
                  " listing=" + listing.hex() + " def_nodes=" + defs.hex());

  const ImplyProgram imply[2] = {compile_imply(aig, false),
                                 compile_imply(aig, true)};
  const MagicProgram magic[2] = {compile_magic(nor, false),
                                 compile_magic(nor, true)};
  for (const auto& t : techs()) {
    const std::string tn = t.name;
    lines.push_back(
        cost_line(tn + " revamp", verify::estimate_cost(rv, t.params)));
    for (int reuse = 0; reuse < 2; ++reuse) {
      const std::string r = reuse ? " reuse" : " fresh";
      lines.push_back(cost_line(tn + " imply" + r,
                                verify::estimate_cost(imply[reuse], t.params)));
      lines.push_back(cost_line(tn + " magic" + r,
                                verify::estimate_cost(magic[reuse], t.params)));
    }
  }
}

RevampOperand rv_op(RevampOperand::Src src, std::size_t a = 0,
                    std::size_t b = 0, bool compl_ = false) {
  RevampOperand op;
  op.src = src;
  op.complemented = compl_;
  if (src == RevampOperand::Src::kInput) op.input_index = a;
  if (src == RevampOperand::Src::kDmr) {
    op.dmr_row = a;
    op.dmr_col = b;
  }
  return op;
}

RevampInstruction rv_read(std::size_t row) {
  RevampInstruction ins;
  ins.kind = RevampInstruction::Kind::kRead;
  ins.wordline = row;
  return ins;
}

RevampInstruction rv_apply(std::size_t row, RevampOperand wl,
                           std::vector<std::optional<RevampOperand>> cols) {
  RevampInstruction ins;
  ins.kind = RevampInstruction::Kind::kApply;
  ins.wordline = row;
  ins.wl = wl;
  ins.columns = std::move(cols);
  return ins;
}

ImplyInstr im(ImplyInstr::Kind kind, std::size_t dest, std::size_t src = 0) {
  ImplyInstr ins;
  ins.kind = kind;
  ins.dest = dest;
  ins.src = src;
  return ins;
}

MagicInstr mg(MagicInstr::Kind kind, std::size_t out,
              std::vector<std::size_t> in = {}) {
  MagicInstr ins;
  ins.kind = kind;
  ins.out_cell = out;
  ins.in_cells = std::move(in);
  return ins;
}

/// Hand-built programs the mappers never emit: cells, input indices and
/// wordlines past the program's size, an unlatched DMR row, and programs
/// over zero inputs.
struct EdgePrograms {
  ImplyProgram imply_oob, imply_narrow, imply_zero;
  MagicProgram magic_oob, magic_zero;
  RevampProgram rv_oob, rv_zero;
};

EdgePrograms edge_programs() {
  using K = ImplyInstr::Kind;
  using M = MagicInstr::Kind;
  using S = RevampOperand::Src;
  EdgePrograms e;

  // IMPLY cells past the footprint, in each operand and in an output.
  ImplyProgram& imply_oob = e.imply_oob;
  imply_oob.num_inputs = 3;
  imply_oob.num_cells = 5;
  imply_oob.instrs = {im(K::kFalse, 3),    im(K::kImply, 3, 0),
                      im(K::kImply, 7, 1), im(K::kImply, 3, 9),
                      im(K::kFalse, 6),    im(K::kImply, 4, 2),
                      im(K::kImply, 4, 3)};
  imply_oob.output_cells = {4, 8, 3};
  // More inputs than cells: only the cells that exist are launched.
  ImplyProgram& imply_narrow = e.imply_narrow;
  imply_narrow.num_inputs = 4;
  imply_narrow.num_cells = 2;
  imply_narrow.instrs = {im(K::kImply, 0, 1), im(K::kImply, 1, 0)};
  imply_narrow.output_cells = {0, 1, 2};

  // MAGIC cells past the footprint (a NOR input, a NOR output, a SET and
  // an output tap), an empty NOR, and a const flag list shorter than the
  // outputs.
  MagicProgram& magic_oob = e.magic_oob;
  magic_oob.num_inputs = 3;
  magic_oob.num_cells = 6;
  magic_oob.instrs = {mg(M::kSet, 3),          mg(M::kNor, 3, {0, 11}),
                      mg(M::kSet, 9),          mg(M::kNor, 8, {1, 2}),
                      mg(M::kSet, 4),          mg(M::kNor, 4, {}),
                      mg(M::kSet, 5),          mg(M::kNor, 5, {0, 1, 2, 3})};
  magic_oob.output_cells = {3, 12, 4, 5};
  magic_oob.output_is_const = {false, true};
  magic_oob.const_values = {false, true};

  // ReVAMP: an input index past num_inputs, an unlatched DMR row, a DMR
  // column past the bitlines, wordlines past the program and a column list
  // longer than the bitlines.
  RevampProgram& rv_oob = e.rv_oob;
  rv_oob.wordlines = 2;
  rv_oob.bitlines = 2;
  rv_oob.num_inputs = 2;
  rv_oob.instrs = {
      rv_apply(0, rv_op(S::kConst1), {rv_op(S::kInput, 0, 0, true),
                                      rv_op(S::kInput, 1)}),
      rv_apply(1, rv_op(S::kInput, 5), {rv_op(S::kInput, 0), std::nullopt}),
      rv_apply(1, rv_op(S::kInput, 1), {rv_op(S::kDmr, 0, 1), std::nullopt}),
      rv_read(0),
      rv_apply(1, rv_op(S::kDmr, 0, 0, true),
               {rv_op(S::kDmr, 0, 7), rv_op(S::kDmr, 0, 1),
                rv_op(S::kInput, 1)}),
      rv_read(5),
      rv_apply(4, rv_op(S::kConst1), {rv_op(S::kInput, 0)}),
      rv_read(1)};
  rv_oob.outputs = {rv_op(S::kDmr, 1, 0), rv_op(S::kInput, 9)};

  // Zero inputs: one assignment, the tail of every word masked.
  ImplyProgram& imply_zero = e.imply_zero;
  imply_zero.num_cells = 3;
  imply_zero.instrs = {im(K::kFalse, 0), im(K::kFalse, 1),
                       im(K::kImply, 0, 1), im(K::kImply, 1, 0),
                       im(K::kImply, 2, 1)};
  imply_zero.output_cells = {0, 1, 2};
  MagicProgram& magic_zero = e.magic_zero;
  magic_zero.num_cells = 3;
  magic_zero.instrs = {mg(M::kSet, 0), mg(M::kSet, 1), mg(M::kNor, 1, {0}),
                       mg(M::kSet, 2), mg(M::kNor, 2, {1})};
  magic_zero.output_cells = {1, 2};
  magic_zero.output_is_const = {false, false};
  magic_zero.const_values = {false, false};
  RevampProgram& rv_zero = e.rv_zero;
  rv_zero.wordlines = 1;
  rv_zero.bitlines = 2;
  rv_zero.instrs = {
      rv_apply(0, rv_op(S::kConst1), {rv_op(S::kConst0), rv_op(S::kConst1)}),
      rv_read(0),
      rv_apply(0, rv_op(S::kDmr, 0, 0, true), {rv_op(S::kDmr, 0, 1)}),
      rv_read(0)};
  rv_zero.outputs = {rv_op(S::kDmr, 0, 0), rv_op(S::kDmr, 0, 1, true)};
  return e;
}

void edge_lines(std::vector<std::string>& lines) {
  const EdgePrograms e = edge_programs();
  lines.push_back("edge programs");
  for (const auto& t : techs()) {
    const std::string tn = t.name;
    const auto& p = t.params;
    lines.push_back(cost_line(tn + " imply_oob",
                              verify::estimate_cost(e.imply_oob, p)));
    lines.push_back(cost_line(tn + " imply_narrow",
                              verify::estimate_cost(e.imply_narrow, p)));
    lines.push_back(cost_line(tn + " magic_oob",
                              verify::estimate_cost(e.magic_oob, p)));
    lines.push_back(
        cost_line(tn + " revamp_oob", verify::estimate_cost(e.rv_oob, p)));
    lines.push_back(cost_line(tn + " imply_zero",
                              verify::estimate_cost(e.imply_zero, p)));
    lines.push_back(cost_line(tn + " magic_zero",
                              verify::estimate_cost(e.magic_zero, p)));
    lines.push_back(
        cost_line(tn + " revamp_zero", verify::estimate_cost(e.rv_zero, p)));
  }
}

/// Every circuit both goldens cover. parity12 sits at kExactCostInputCap;
/// the two 13-input circuits take the approximate domain.
std::vector<std::pair<std::string, Netlist>> golden_circuits() {
  std::vector<std::pair<std::string, Netlist>> out;
  for (const auto& c : standard_suite()) out.emplace_back(c.name, c.netlist);
  util::Rng rng(2021);
  for (int v = 2; v <= 10; ++v)
    out.emplace_back("random" + std::to_string(v), random_function(v, rng));
  out.emplace_back("parity12", parity(12));
  out.emplace_back("parity13", parity(13));
  out.emplace_back("rca6", ripple_carry_adder(6));
  return out;
}

std::vector<std::string> run_golden() {
  std::vector<std::string> lines;
  for (const auto& [name, nl] : golden_circuits())
    circuit_lines(name, nl, lines);
  edge_lines(lines);
  return lines;
}

/// Every ProgramAccess field: the aggregates in the clear, then one FNV-1a
/// hash over the footprint, every per-cell, per-column and per-row vector
/// (size first) and the aggregates.
std::string access_line(const std::string& tag,
                        const verify::ProgramAccess& a) {
  Fnv f;
  const auto vec = [&f](const auto& v) {
    f.u64(v.size());
    for (const auto x : v) f.u64(static_cast<std::uint64_t>(x));
  };
  f.u64(a.rows);
  f.u64(a.cols);
  vec(a.write_bound);
  vec(a.read);
  vec(a.written);
  vec(a.sensed_cols);
  vec(a.driven_rows);
  f.u64(a.total_writes);
  f.u64(a.sensed_reads);
  return "  access " + tag + " rows=" + std::to_string(a.rows) +
         " cols=" + std::to_string(a.cols) +
         " total_writes=" + std::to_string(a.total_writes) +
         " sensed_reads=" + std::to_string(a.sensed_reads) +
         " max_write_bound=" + std::to_string(a.max_write_bound()) +
         " hash=" + f.hex();
}

/// The access sets `check_program` takes from the walk that yields its
/// cost: the exact walk up to kExactCostInputCap inputs, the one-lane past.
template <typename Prog>
verify::ProgramAccess checked_access(const Prog& prog) {
  return verify::check_program(prog, nullptr).access;
}

/// The access golden's lines, from `access_of`, or from `check_program`
/// when `checked` is set.
std::vector<std::string> run_access_golden(bool checked) {
  const auto sets = [checked](const auto& prog) {
    return checked ? checked_access(prog) : verify::access_of(prog);
  };
  std::vector<std::string> lines;
  for (const auto& [name, nl] : golden_circuits()) {
    const Aig aig = Aig::from_netlist(nl);
    const Mig mig = Mig::from_aig(aig);
    const Netlist nor = aig.to_netlist().to_nor_only();
    const RevampProgram rv = assemble_revamp(mig, schedule_revamp(mig));
    lines.push_back(name);
    lines.push_back(access_line("revamp", sets(rv)));
    for (const bool reuse : {false, true}) {
      const std::string r = reuse ? " reuse" : " fresh";
      lines.push_back(
          access_line("imply" + r, sets(compile_imply(aig, reuse))));
      lines.push_back(
          access_line("magic" + r, sets(compile_magic(nor, reuse))));
    }
  }
  const EdgePrograms e = edge_programs();
  lines.push_back("edge programs");
  lines.push_back(access_line("imply_oob", sets(e.imply_oob)));
  lines.push_back(access_line("imply_narrow", sets(e.imply_narrow)));
  lines.push_back(access_line("magic_oob", sets(e.magic_oob)));
  lines.push_back(access_line("revamp_oob", sets(e.rv_oob)));
  lines.push_back(access_line("imply_zero", sets(e.imply_zero)));
  lines.push_back(access_line("magic_zero", sets(e.magic_zero)));
  lines.push_back(access_line("revamp_zero", sets(e.rv_zero)));
  return lines;
}

/// Writes `lines` to `path` under a `#` header line.
void dump(const char* path, const char* header,
          const std::vector<std::string>& lines) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  out << "# " << header << "\n";
  for (const auto& line : lines) out << line << "\n";
}

/// Compares `got` with the non-comment lines of the golden at `path`.
void expect_golden(const char* path, const std::vector<std::string>& got) {
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') want.push_back(line);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "line " << i;
}

TEST(CostGolden, DISABLED_DumpGolden) {
  dump(kGoldenPath,
       "cim eda cost golden: CostEstimate fields (%.17g), ReVAMP schedules "
       "and listings, truth-table hashes (FNV-1a)",
       run_golden());
}

TEST(CostGolden, MatchesCheckedInGolden) {
  expect_golden(kGoldenPath, run_golden());
}

TEST(AccessGolden, DISABLED_DumpGolden) {
  dump(kAccessGoldenPath,
       "cim eda access golden: ProgramAccess fields (FNV-1a) of every "
       "program the cost golden covers",
       run_access_golden(false));
}

TEST(AccessGolden, MatchesCheckedInGolden) {
  expect_golden(kAccessGoldenPath, run_access_golden(false));
}

TEST(AccessGolden, CheckProgramRecordsTheSameSets) {
  expect_golden(kAccessGoldenPath, run_access_golden(true));
}

}  // namespace
}  // namespace cim::eda
