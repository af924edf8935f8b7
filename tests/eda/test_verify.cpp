/// \file test_verify.cpp
/// \brief Negative tests for the static micro-op program verifier: each test
///        hand-constructs one malformed program and asserts that exactly the
///        intended rule fires, exactly once, with nothing else flagged.
#include "eda/verify/verify.hpp"

#include <gtest/gtest.h>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/netlist.hpp"
#include "eda/revamp_isa.hpp"

namespace cim::eda {
namespace {

using verify::Rule;
using verify::Severity;

RevampOperand rv_const(bool one) {
  RevampOperand op;
  op.src = one ? RevampOperand::Src::kConst1 : RevampOperand::Src::kConst0;
  return op;
}

RevampOperand rv_dmr(std::size_t row, std::size_t col) {
  RevampOperand op;
  op.src = RevampOperand::Src::kDmr;
  op.dmr_row = row;
  op.dmr_col = col;
  return op;
}

// --- use-before-init ---------------------------------------------------------

TEST(VerifyNegative, MagicNorReadsUninitializedCell) {
  MagicProgram prog;
  prog.num_inputs = 1;
  prog.num_cells = 3;
  prog.instrs.push_back({MagicInstr::Kind::kSet, 2, {}});
  // Cell 1 is neither an input nor ever written.
  prog.instrs.push_back({MagicInstr::Kind::kNor, 2, {1}});
  prog.output_cells = {2};

  const auto rep = verify::lint_magic(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kUseBeforeInit), 1u);
  EXPECT_EQ(rep.diagnostics.front().instr, 1u);
  EXPECT_EQ(rep.diagnostics.front().cell, 1u);
}

TEST(VerifyNegative, ImplyReadsUninitializedCell) {
  ImplyProgram prog;
  prog.num_inputs = 1;
  prog.zero_cell = 1;
  prog.num_cells = 3;
  prog.instrs.push_back({ImplyInstr::Kind::kFalse, 1, 0});
  // IMPLY is read-modify-write on dest: cell 2 was never initialized.
  prog.instrs.push_back({ImplyInstr::Kind::kImply, 2, 1});
  prog.output_cells = {2};

  const auto rep = verify::lint_imply(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kUseBeforeInit), 1u);
}

// --- write-after-write -------------------------------------------------------

TEST(VerifyNegative, MagicNorWithoutReSetIsWriteAfterWrite) {
  MagicProgram prog;
  prog.num_inputs = 1;
  prog.num_cells = 3;
  prog.instrs.push_back({MagicInstr::Kind::kSet, 2, {}});
  prog.instrs.push_back({MagicInstr::Kind::kNor, 2, {0}});
  // Second NOR into cell 2 without the mandatory re-SET.
  prog.instrs.push_back({MagicInstr::Kind::kNor, 2, {0}});
  prog.output_cells = {2};

  const auto rep = verify::lint_magic(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kWriteAfterWrite), 1u);
  EXPECT_EQ(rep.diagnostics.front().instr, 2u);
}

// --- dead-cell-read (liveness, re-derived from the source netlist) -----------

TEST(VerifyNegative, MagicReadOfRecycledCellIsDeadCellRead) {
  // nor chain: g2 = NOR(a, b); g3 = NOR(g2); g4 = NOR(g3); output g4.
  Netlist nl;
  const auto a = nl.add_input();
  const auto b = nl.add_input();
  const auto g2 = nl.add_gate(GateType::kNor, {a, b});
  const auto g3 = nl.add_gate(GateType::kNor, {g2});
  const auto g4 = nl.add_gate(GateType::kNor, {g3});
  nl.mark_output(g4);

  MagicProgram prog;
  prog.num_inputs = 2;
  prog.num_cells = 5;
  prog.instrs.push_back({MagicInstr::Kind::kSet, 2, {}, g2});
  prog.instrs.push_back({MagicInstr::Kind::kNor, 2, {0, 1}, g2});
  prog.instrs.push_back({MagicInstr::Kind::kSet, 3, {}, g3});
  prog.instrs.push_back({MagicInstr::Kind::kNor, 3, {2}, g3});
  prog.instrs.push_back({MagicInstr::Kind::kSet, 4, {}, g4});
  // Bug: g4 reads cell 2 (g2's cell, all fanouts consumed) instead of
  // cell 3 — the classic premature-recycle victim.
  prog.instrs.push_back({MagicInstr::Kind::kNor, 4, {2}, g4});
  prog.output_cells = {4};

  const auto rep = verify::lint_magic(prog, &nl);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kDeadCellRead), 1u);
  EXPECT_EQ(rep.diagnostics.front().instr, 5u);
  EXPECT_EQ(rep.diagnostics.front().cell, 2u);
}

TEST(VerifyNegative, MagicPrematureRecycleOfLiveCell) {
  // g2 = NOR(a); g3 = NOR(a); output NOR(g2, g3). Recycling g2's cell for
  // g3's SET while g2 still has a live fanout must be flagged.
  Netlist nl;
  const auto a = nl.add_input();
  const auto g1 = nl.add_gate(GateType::kNor, {a});
  const auto g2 = nl.add_gate(GateType::kNor, {a});
  const auto g3 = nl.add_gate(GateType::kNor, {g1, g2});
  nl.mark_output(g3);

  MagicProgram prog;
  prog.num_inputs = 1;
  prog.num_cells = 3;
  prog.instrs.push_back({MagicInstr::Kind::kSet, 1, {}, g1});
  prog.instrs.push_back({MagicInstr::Kind::kNor, 1, {0}, g1});
  // Bug: reuses cell 1 for g2 although g1 is still live (g3 reads it).
  prog.instrs.push_back({MagicInstr::Kind::kSet, 1, {}, g2});
  prog.instrs.push_back({MagicInstr::Kind::kNor, 1, {0}, g2});
  prog.instrs.push_back({MagicInstr::Kind::kSet, 2, {}, g3});
  prog.instrs.push_back({MagicInstr::Kind::kNor, 2, {1, 1}, g3});
  prog.output_cells = {2};

  const auto rep = verify::lint_magic(prog, &nl);
  EXPECT_FALSE(rep.clean());
  EXPECT_GE(rep.count(Rule::kDeadCellRead), 1u);
  // The premature recycle itself is the first finding, at the rogue SET.
  EXPECT_EQ(rep.diagnostics.front().rule, Rule::kDeadCellRead);
  EXPECT_EQ(rep.diagnostics.front().instr, 2u);
}

// --- oob-cell ----------------------------------------------------------------

TEST(VerifyNegative, ImplyWriteOutsideFootprintIsOob) {
  ImplyProgram prog;
  prog.num_inputs = 1;
  prog.zero_cell = 1;
  prog.num_cells = 3;
  prog.instrs.push_back({ImplyInstr::Kind::kFalse, 5, 0});  // cell 5 of 3

  const auto rep = verify::lint_imply(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kOobCell), 1u);
  EXPECT_EQ(rep.diagnostics.front().cell, 5u);
}

TEST(VerifyNegative, GeometryTooSmallIsOob) {
  const Aig aig = Aig::from_netlist(ripple_carry_adder(2));
  const auto prog = compile_imply(aig, true);
  verify::VerifyOptions opts;
  opts.geometry = crossbar::Geometry{1, 2};  // 2 columns cannot hold it
  const auto rep = verify::lint_imply(prog, &aig, opts);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.count(Rule::kOobCell), 1u);
}

// --- output-unreachable ------------------------------------------------------

TEST(VerifyNegative, OutputNeverWrittenIsUnreachable) {
  ImplyProgram prog;
  prog.num_inputs = 1;
  prog.zero_cell = 1;
  prog.num_cells = 3;
  prog.instrs.push_back({ImplyInstr::Kind::kFalse, 1, 0});
  prog.output_cells = {2};  // cell 2 is never defined

  const auto rep = verify::lint_imply(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kOutputUnreachable), 1u);
}

// --- dmr-not-latched ---------------------------------------------------------

TEST(VerifyNegative, RevampUnlatchedDmrOperand) {
  RevampProgram prog;
  prog.wordlines = 1;
  prog.bitlines = 1;
  prog.num_inputs = 0;

  RevampInstruction reset;
  reset.kind = RevampInstruction::Kind::kApply;
  reset.wordline = 0;
  reset.wl = rv_const(false);
  reset.columns = {rv_const(true)};
  prog.instrs.push_back(reset);

  RevampInstruction apply;
  apply.kind = RevampInstruction::Kind::kApply;
  apply.wordline = 0;
  apply.wl = rv_dmr(0, 0);  // row 0 was never READ into the DMR
  apply.columns = {rv_const(false)};
  prog.instrs.push_back(apply);

  const auto rep = verify::lint_revamp(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kDmrNotLatched), 1u);
  EXPECT_EQ(rep.diagnostics.front().instr, 1u);
}

TEST(VerifyNegative, RevampStaleLatchIsFlagged) {
  RevampProgram prog;
  prog.wordlines = 1;
  prog.bitlines = 1;
  prog.num_inputs = 0;

  RevampInstruction reset;
  reset.kind = RevampInstruction::Kind::kApply;
  reset.wordline = 0;
  reset.wl = rv_const(false);
  reset.columns = {rv_const(true)};
  prog.instrs.push_back(reset);

  RevampInstruction read;
  read.kind = RevampInstruction::Kind::kRead;
  read.wordline = 0;
  prog.instrs.push_back(read);

  // The row is rewritten after the READ, so the output tap below reads a
  // stale latch.
  RevampInstruction set;
  set.kind = RevampInstruction::Kind::kApply;
  set.wordline = 0;
  set.wl = rv_const(true);
  set.columns = {rv_const(false)};
  prog.instrs.push_back(set);

  prog.outputs = {rv_dmr(0, 0)};

  const auto rep = verify::lint_revamp(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kDmrNotLatched), 1u);
}

TEST(VerifyNegative, RevampUninitializedMajorityState) {
  RevampProgram prog;
  prog.wordlines = 1;
  prog.bitlines = 1;
  prog.num_inputs = 1;

  // Dynamic apply with no prior RESET idiom: NS = MAJ(S, PI, 1) depends on
  // the power-on state S.
  RevampInstruction apply;
  apply.kind = RevampInstruction::Kind::kApply;
  apply.wordline = 0;
  apply.wl.src = RevampOperand::Src::kInput;
  apply.wl.input_index = 0;
  apply.columns = {rv_const(false)};
  prog.instrs.push_back(apply);

  const auto rep = verify::lint_revamp(prog);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Rule::kUseBeforeInit), 1u);
}

// --- positive control: clean programs stay clean -----------------------------

TEST(VerifyPositive, CompiledProgramsAreClean) {
  const auto nl = ripple_carry_adder(2);
  const Aig aig = Aig::from_netlist(nl);
  for (const bool reuse : {false, true}) {
    const auto iprog = compile_imply(aig, reuse);
    const auto irep = verify::lint_imply(iprog, &aig);
    EXPECT_TRUE(irep.clean()) << (irep.diagnostics.empty()
                                      ? "?"
                                      : irep.diagnostics.front().to_string());
    EXPECT_TRUE(irep.diagnostics.empty());

    const auto nor = aig.to_netlist().to_nor_only();
    const auto mprog = compile_magic(nor, reuse);
    const auto mrep = verify::lint_magic(mprog, &nor);
    EXPECT_TRUE(mrep.clean()) << (mrep.diagnostics.empty()
                                      ? "?"
                                      : mrep.diagnostics.front().to_string());
    EXPECT_TRUE(mrep.diagnostics.empty());
  }
  const Mig mig = Mig::from_aig(aig);
  const auto rrep = verify::lint_revamp(assemble_revamp(mig,
                                                        schedule_revamp(mig)));
  EXPECT_TRUE(rrep.clean());
  EXPECT_TRUE(rrep.diagnostics.empty());
}

TEST(VerifyPositive, FlowReportsCarryLintVerdict) {
  const auto nl = majority_n(5);
  const auto rep = run_flow("maj5", nl, LogicFamily::kMagic,
                            {.reuse_cells = true, .verify = true});
  EXPECT_TRUE(rep.lint_clean);
  EXPECT_EQ(rep.lint_errors, 0u);
  EXPECT_TRUE(rep.verified);
  EXPECT_GT(rep.max_writes_per_cell, 0u);
}

TEST(VerifyPositive, LintTableRendersOneRowPerEntry) {
  const auto nl = parity(3);
  const Aig aig = Aig::from_netlist(nl);
  const auto prog = compile_imply(aig, true);
  std::vector<verify::LintEntry> entries;
  entries.push_back({"parity3", "IMPLY", verify::lint_imply(prog, &aig)});
  const auto t = verify::lint_table(entries);
  EXPECT_EQ(t.rows(), 1u);
}

// --- diagnostics plumbing ----------------------------------------------------

TEST(VerifyDiagnostics, RuleIdsAreStable) {
  EXPECT_EQ(verify::rule_id(Rule::kUseBeforeInit), "use-before-init");
  EXPECT_EQ(verify::rule_id(Rule::kWriteAfterWrite), "write-after-write");
  EXPECT_EQ(verify::rule_id(Rule::kDeadCellRead), "dead-cell-read");
  EXPECT_EQ(verify::rule_id(Rule::kOobCell), "oob-cell");
  EXPECT_EQ(verify::rule_id(Rule::kOutputUnreachable), "output-unreachable");
  EXPECT_EQ(verify::rule_id(Rule::kDmrNotLatched), "dmr-not-latched");
}

TEST(VerifyDiagnostics, ToStringCarriesRuleAndLocation) {
  verify::Diagnostic d{Severity::kError, Rule::kOobCell, 4, 7, "boom"};
  const auto s = d.to_string();
  EXPECT_NE(s.find("oob-cell"), std::string::npos);
  EXPECT_NE(s.find("4"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
  EXPECT_NE(s.find("boom"), std::string::npos);
}

// --- netlist construction guard (regression) ---------------------------------

TEST(NetlistGuards, AddGateRejectsForwardReference) {
  Netlist nl;
  const auto a = nl.add_input();
  EXPECT_THROW((void)nl.add_gate(GateType::kNor, {a, 5}),
               std::invalid_argument);
  try {
    (void)nl.add_gate(GateType::kNor, {a, 5});
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5"), std::string::npos);
    EXPECT_NE(what.find("topological"), std::string::npos);
  }
}

}  // namespace
}  // namespace cim::eda
