/// cim-prog-v1 serialization (eda/verify/program_io.hpp): dump -> parse ->
/// dump must be a fixpoint for every mapper output, parsed programs must
/// lint identically to the originals, and malformed input must fail with a
/// line-numbered error instead of a partial program.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/netlist.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/access.hpp"
#include "eda/verify/program_io.hpp"
#include "eda/verify/verify.hpp"

namespace cim::eda::verify {
namespace {

template <typename Prog>
std::string dumped(const Prog& prog) {
  std::ostringstream os;
  dump_program(os, prog);
  return os.str();
}

ParsedProgram parse_or_die(const std::string& text) {
  std::istringstream is(text);
  std::string error;
  auto parsed = parse_program(is, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed.value_or(ParsedProgram{});
}

TEST(ProgramIo, ImplyRoundTripIsAFixpoint) {
  for (const auto& bc : standard_suite()) {
    const auto prog = compile_imply(Aig::from_netlist(bc.netlist), true);
    const auto text = dumped(prog);
    const auto parsed = parse_or_die(text);
    ASSERT_EQ(parsed.family, ProgramFamily::kImply) << bc.name;
    EXPECT_EQ(dumped(parsed.imply), text) << bc.name;
  }
}

TEST(ProgramIo, MagicRoundTripIsAFixpoint) {
  for (const auto& bc : standard_suite()) {
    const auto nor = Aig::from_netlist(bc.netlist).to_netlist().to_nor_only();
    const auto prog = compile_magic(nor, true);
    const auto text = dumped(prog);
    const auto parsed = parse_or_die(text);
    ASSERT_EQ(parsed.family, ProgramFamily::kMagic) << bc.name;
    EXPECT_EQ(dumped(parsed.magic), text) << bc.name;
  }
}

TEST(ProgramIo, RevampRoundTripIsAFixpoint) {
  for (const auto& bc : standard_suite()) {
    const auto mig = Mig::from_aig(Aig::from_netlist(bc.netlist));
    const auto prog = assemble_revamp(mig, schedule_revamp(mig));
    const auto text = dumped(prog);
    const auto parsed = parse_or_die(text);
    ASSERT_EQ(parsed.family, ProgramFamily::kRevamp) << bc.name;
    EXPECT_EQ(dumped(parsed.revamp), text) << bc.name;
  }
}

TEST(ProgramIo, ParsedProgramLintsIdenticallyToTheOriginal) {
  const auto nl = ripple_carry_adder(2);
  const auto prog = compile_imply(Aig::from_netlist(nl), true);
  const auto parsed = parse_or_die(dumped(prog));
  // Program-local rules only on both sides (the dump carries @node
  // annotations, so liveness context survives serialization too).
  const auto before = lint_imply(prog);
  const auto after = lint_imply(parsed.imply);
  EXPECT_EQ(before.errors(), after.errors());
  EXPECT_EQ(before.warnings(), after.warnings());
  EXPECT_EQ(access_of(prog).max_write_bound(),
            access_of(parsed.imply).max_write_bound());
}

TEST(ProgramIo, NodeAnnotationsSurviveTheRoundTrip) {
  const auto prog =
      compile_imply(Aig::from_netlist(ripple_carry_adder(2)), true);
  const auto parsed = parse_or_die(dumped(prog));
  ASSERT_EQ(parsed.imply.instrs.size(), prog.instrs.size());
  for (std::size_t i = 0; i < prog.instrs.size(); ++i)
    EXPECT_EQ(parsed.imply.instrs[i].def_node, prog.instrs[i].def_node) << i;
}

TEST(ProgramIo, CommentsAndBlankLinesAreIgnored)
{
  const std::string text =
      "# a tiny NOT-ish program\n"
      "cim-prog-v1 imply\n"
      "\n"
      "inputs 1   # one primary input\n"
      "cells 2\n"
      "zero 1\n"
      "false 1 @-\n"
      "imply 1 0 @2\n"
      "output 1\n";
  const auto parsed = parse_or_die(text);
  EXPECT_EQ(parsed.imply.num_inputs, 1u);
  EXPECT_EQ(parsed.imply.num_cells, 2u);
  ASSERT_EQ(parsed.imply.instrs.size(), 2u);
  EXPECT_EQ(parsed.imply.instrs[1].def_node, 2u);
  EXPECT_EQ(parsed.imply.output_cells, (std::vector<std::size_t>{1}));
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  std::istringstream is(text);
  std::string error;
  const auto parsed = parse_program(is, &error);
  EXPECT_FALSE(parsed.has_value()) << text;
  EXPECT_NE(error.find("parse error"), std::string::npos) << error;
  EXPECT_NE(error.find(needle), std::string::npos) << error;
}

TEST(ProgramIo, MalformedInputFailsWithLineNumberedErrors) {
  expect_parse_error("bogus header\n", "line 1");
  expect_parse_error("cim-prog-v1 fpga\n", "unknown family");
  expect_parse_error("cim-prog-v1 imply\nfrob 1\n", "unknown directive");
  expect_parse_error("cim-prog-v1 imply\nimply 1\n", "missing operands");
  expect_parse_error("cim-prog-v1 imply\nimply 1 0 @x\n", "node annotation");
  expect_parse_error("cim-prog-v1 magic\nnor 3\n", "nor without inputs");
  expect_parse_error("cim-prog-v1 revamp\napply 0 q7\n", "operand");
  expect_parse_error("cim-prog-v1 revamp\nbitlines 2\napply 0 c1 0:c0\n",
                     "<col>=<operand>");
  expect_parse_error("", "empty stream");
  // Column and size fields that overflow, exceed the declared bitlines or
  // exceed the format limit are rejected before they size anything.
  expect_parse_error(
      "cim-prog-v1 revamp\nbitlines 2\napply 0 c0 18446744073709551615=c0\n",
      "line 3: column 18446744073709551615 is not below bitlines 2");
  expect_parse_error("cim-prog-v1 revamp\nbitlines 2\napply 0 c0 2=c1\n",
                     "line 3: column 2 is not below bitlines 2");
  expect_parse_error("cim-prog-v1 imply\ncells 18446744073709551616\n",
                     "line 2: cells '18446744073709551616'");
  expect_parse_error("cim-prog-v1 revamp\nbitlines 4097\n",
                     "line 2: bitlines '4097' is not an unsigned integer <= "
                     "4096");
}

TEST(ProgramIo, RevampOperandGrammarCoversAllSources) {
  const std::string text =
      "cim-prog-v1 revamp\n"
      "inputs 2\n"
      "wordlines 2\n"
      "bitlines 2\n"
      "apply 0 c1 0=!i1 1=c0\n"
      "read 0\n"
      "apply 1 !d0.1 0=i0\n"
      "read 1\n"
      "output d1.0\n"
      "output !c1\n";
  const auto parsed = parse_or_die(text);
  const auto& p = parsed.revamp;
  ASSERT_EQ(p.instrs.size(), 4u);
  const auto& a0 = p.instrs[0];
  EXPECT_EQ(a0.wl.src, RevampOperand::Src::kConst1);
  ASSERT_TRUE(a0.columns[0].has_value());
  EXPECT_EQ(a0.columns[0]->src, RevampOperand::Src::kInput);
  EXPECT_EQ(a0.columns[0]->input_index, 1u);
  EXPECT_TRUE(a0.columns[0]->complemented);
  const auto& a1 = p.instrs[2];
  EXPECT_EQ(a1.wl.src, RevampOperand::Src::kDmr);
  EXPECT_EQ(a1.wl.dmr_row, 0u);
  EXPECT_EQ(a1.wl.dmr_col, 1u);
  EXPECT_TRUE(a1.wl.complemented);
  ASSERT_EQ(p.outputs.size(), 2u);
  EXPECT_EQ(p.outputs[0].src, RevampOperand::Src::kDmr);
  EXPECT_TRUE(p.outputs[1].complemented);
}

}  // namespace
}  // namespace cim::eda::verify
