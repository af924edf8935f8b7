/// \file test_functional_verify.cpp
/// \brief The word-level functional verifiers (verify_imply, verify_magic,
///        verify_revamp) against wrong programs: a malformed program must
///        be rejected, never run out of bounds, and a planted mapper bug
///        must fail on every suite circuit. The ReVAMP assembler and device
///        executor must throw on a hand-built schedule or program they
///        cannot run. Registered under the `lint` label, so the sanitizer
///        slice covers the interpreters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"

namespace cim::eda {
namespace {

/// One circuit mapped as the flow maps it, in all three families.
struct Mapped {
  Aig aig;
  Netlist nor;
  Mig mig;
  ImplyProgram imply;
  MagicProgram magic;
  RevampProgram revamp;

  explicit Mapped(const Netlist& nl)
      : aig(Aig::from_netlist(nl)),
        nor(aig.to_netlist().to_nor_only()),
        mig(Mig::from_aig(aig)),
        imply(compile_imply(aig, true)),
        magic(compile_magic(nor, true)),
        revamp(assemble_revamp(mig, schedule_revamp(mig))) {}
};

/// rca2: two outputs, DMR reads and multi-input NORs in every family.
const Mapped& rca2() {
  static const Mapped m(ripple_carry_adder(2));
  return m;
}

std::size_t first_apply(const RevampProgram& p) {
  for (std::size_t k = 0; k < p.instrs.size(); ++k)
    if (p.instrs[k].kind == RevampInstruction::Kind::kApply) return k;
  return p.instrs.size();
}

TEST(FunctionalVerifyMalformed, WellFormedProgramsVerify) {
  const auto& m = rca2();
  EXPECT_TRUE(verify_imply(m.imply, m.aig));
  EXPECT_TRUE(verify_magic(m.magic, m.nor));
  EXPECT_TRUE(verify_revamp(m.revamp, m.mig));
}

TEST(FunctionalVerifyMalformed, OutputCountDiffersFromSpec) {
  const auto& m = rca2();
  for (const int delta : {-1, +1}) {
    auto imply = m.imply;
    auto magic = m.magic;
    auto revamp = m.revamp;
    if (delta < 0) {
      imply.output_cells.pop_back();
      magic.output_cells.pop_back();
      magic.output_is_const.pop_back();
      magic.const_values.pop_back();
      revamp.outputs.pop_back();
    } else {
      imply.output_cells.push_back(imply.output_cells.front());
      magic.output_cells.push_back(magic.output_cells.front());
      magic.output_is_const.push_back(magic.output_is_const.front());
      magic.const_values.push_back(magic.const_values.front());
      revamp.outputs.push_back(revamp.outputs.front());
    }
    EXPECT_FALSE(verify_imply(imply, m.aig)) << delta;
    EXPECT_FALSE(verify_magic(magic, m.nor)) << delta;
    EXPECT_FALSE(verify_revamp(revamp, m.mig)) << delta;
  }
  // MAGIC's three per-output vectors must agree with each other too.
  auto magic = m.magic;
  magic.const_values.pop_back();
  EXPECT_FALSE(verify_magic(magic, m.nor));
}

TEST(FunctionalVerifyMalformed, InputCountDiffersFromSpec) {
  const auto& m = rca2();
  for (const int delta : {-1, +1}) {
    auto imply = m.imply;
    auto magic = m.magic;
    auto revamp = m.revamp;
    imply.num_inputs += static_cast<std::size_t>(delta);
    magic.num_inputs += static_cast<std::size_t>(delta);
    revamp.num_inputs += static_cast<std::size_t>(delta);
    EXPECT_FALSE(verify_imply(imply, m.aig)) << delta;
    EXPECT_FALSE(verify_magic(magic, m.nor)) << delta;
    EXPECT_FALSE(verify_revamp(revamp, m.mig)) << delta;
  }
}

TEST(FunctionalVerifyMalformed, CellIndexPastProgram) {
  const auto& m = rca2();
  const std::size_t past_imply = m.imply.num_cells;
  const std::size_t past_magic = m.magic.num_cells;
  {
    auto p = m.imply;
    p.instrs.back().dest = past_imply;
    EXPECT_FALSE(verify_imply(p, m.aig));
  }
  {
    auto p = m.imply;
    const auto it =
        std::find_if(p.instrs.begin(), p.instrs.end(), [](const auto& ins) {
          return ins.kind == ImplyInstr::Kind::kImply;
        });
    ASSERT_NE(it, p.instrs.end());
    it->src = past_imply;
    EXPECT_FALSE(verify_imply(p, m.aig));
  }
  {
    auto p = m.imply;
    p.output_cells.front() = past_imply;
    EXPECT_FALSE(verify_imply(p, m.aig));
  }
  {
    auto p = m.magic;
    p.instrs.back().out_cell = past_magic;
    EXPECT_FALSE(verify_magic(p, m.nor));
  }
  {
    auto p = m.magic;
    p.instrs.back().in_cells.back() = past_magic;
    EXPECT_FALSE(verify_magic(p, m.nor));
  }
  {
    auto p = m.magic;
    p.output_cells.front() = past_magic;
    EXPECT_FALSE(verify_magic(p, m.nor));
  }
}

TEST(FunctionalVerifyMalformed, WordlinePastProgram) {
  const auto& m = rca2();
  for (const auto kind :
       {RevampInstruction::Kind::kRead, RevampInstruction::Kind::kApply}) {
    auto p = m.revamp;
    const auto it =
        std::find_if(p.instrs.begin(), p.instrs.end(),
                     [kind](const auto& ins) { return ins.kind == kind; });
    ASSERT_NE(it, p.instrs.end());
    it->wordline = p.wordlines;
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
}

TEST(FunctionalVerifyMalformed, BitlinePastProgram) {
  const auto& m = rca2();
  {
    auto p = m.revamp;  // an Apply driving one column too many
    auto& cols = p.instrs[first_apply(p)].columns;
    cols.resize(p.bitlines + 1);
    cols.back() = RevampOperand{};
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
  {
    auto p = m.revamp;  // a DMR operand past the latched word
    const auto it =
        std::find_if(p.outputs.begin(), p.outputs.end(), [](const auto& op) {
          return op.src == RevampOperand::Src::kDmr;
        });
    ASSERT_NE(it, p.outputs.end());
    it->dmr_col = p.bitlines;
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
  {
    auto p = m.revamp;  // a DMR operand past the array's rows
    p.outputs.front() = RevampOperand{RevampOperand::Src::kDmr, 0,
                                      p.wordlines, 0, false};
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
}

TEST(FunctionalVerifyMalformed, InputIndexPastProgram) {
  const auto& m = rca2();
  {
    auto p = m.revamp;
    p.instrs[first_apply(p)].wl =
        RevampOperand{RevampOperand::Src::kInput, p.num_inputs, 0, 0, false};
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
  {
    auto p = m.revamp;
    p.outputs.back() =
        RevampOperand{RevampOperand::Src::kInput, p.num_inputs, 0, 0, false};
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
}

TEST(FunctionalVerifyMalformed, NorWithNoInputs) {
  const auto& m = rca2();
  auto p = m.magic;
  const auto it =
      std::find_if(p.instrs.begin(), p.instrs.end(), [](const auto& ins) {
        return ins.kind == MagicInstr::Kind::kNor;
      });
  ASSERT_NE(it, p.instrs.end());
  it->in_cells.clear();
  EXPECT_FALSE(verify_magic(p, m.nor));

  // A constant-1 output left SET by an empty NOR: the interpreter would
  // match, but the device executor rejects a NOR with no inputs.
  Netlist one;
  (void)one.add_input();
  one.mark_output(one.add_const(true));
  MagicProgram q;
  q.num_inputs = 1;
  q.num_cells = 2;
  q.instrs = {{MagicInstr::Kind::kSet, 1, {}}, {MagicInstr::Kind::kNor, 1, {}}};
  q.output_cells = {1};
  q.output_is_const = {false};
  q.const_values = {false};
  EXPECT_FALSE(verify_magic(q, one));
  q.instrs.pop_back();
  EXPECT_TRUE(verify_magic(q, one));
}

TEST(FunctionalVerifyMalformed, DmrRowNeverLatched) {
  const auto& m = rca2();
  {
    auto p = m.revamp;  // no READ at all: every DMR operand is unlatched
    std::erase_if(p.instrs, [](const auto& ins) {
      return ins.kind == RevampInstruction::Kind::kRead;
    });
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
  {
    auto p = m.revamp;  // only the final READs go: the output taps
    while (p.instrs.back().kind == RevampInstruction::Kind::kRead)
      p.instrs.pop_back();
    EXPECT_FALSE(verify_revamp(p, m.mig));
  }
  {
    // A constant-0 output tapped from a row no READ latched: the register
    // would read 0 and match, but the device executor cannot run it.
    Mig mig;
    (void)mig.add_input();
    mig.mark_output(mig.const0());
    RevampProgram p;
    p.wordlines = 1;
    p.bitlines = 1;
    p.num_inputs = 1;
    p.outputs = {RevampOperand{RevampOperand::Src::kDmr, 0, 0, 0, false}};
    EXPECT_FALSE(verify_revamp(p, mig));
    p.instrs.push_back({RevampInstruction::Kind::kRead, 0, {}, {}, {}});
    EXPECT_TRUE(verify_revamp(p, mig));
  }
}

// --- the ReVAMP assembler and executor reject what they cannot run ----------

TEST(RevampAssembleMalformed, PlanColumnPastRowWidth) {
  const auto& m = rca2();
  auto sched = schedule_revamp(m.mig);
  sched.plan.back().col = sched.max_row_width;
  EXPECT_THROW((void)assemble_revamp(m.mig, sched), std::invalid_argument);
}

TEST(RevampAssembleMalformed, PlanRowPastRows) {
  const auto& m = rca2();
  auto sched = schedule_revamp(m.mig);
  sched.plan.back().row = sched.rows;
  EXPECT_THROW((void)assemble_revamp(m.mig, sched), std::invalid_argument);
}

TEST(RevampAssembleMalformed, PlanNodePastMig) {
  const auto& m = rca2();
  auto sched = schedule_revamp(m.mig);
  sched.plan.back().node = static_cast<std::uint32_t>(m.mig.num_nodes());
  EXPECT_THROW((void)assemble_revamp(m.mig, sched), std::invalid_argument);
}

crossbar::Crossbar revamp_array(const RevampProgram& p) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = p.wordlines;
  cfg.cols = p.bitlines;
  return crossbar::Crossbar(cfg);
}

TEST(RevampExecuteMalformed, InputIndexPastNumInputs) {
  const auto& m = rca2();
  const RevampOperand past{RevampOperand::Src::kInput, m.revamp.num_inputs, 0,
                           0, false};
  {
    auto p = m.revamp;
    p.instrs[first_apply(p)].wl = past;
    auto xbar = revamp_array(p);
    EXPECT_THROW((void)execute_revamp_program(xbar, p, 0),
                 std::invalid_argument);
  }
  {
    auto p = m.revamp;
    p.outputs.back() = past;
    auto xbar = revamp_array(p);
    EXPECT_THROW((void)execute_revamp_program(xbar, p, 0),
                 std::invalid_argument);
  }
}

TEST(RevampExecuteMalformed, InputIndexPast64) {
  // Within num_inputs, but past the 64 bits of the packed assignment.
  auto p = rca2().revamp;
  p.num_inputs = 100;
  p.instrs[first_apply(p)].wl =
      RevampOperand{RevampOperand::Src::kInput, 64, 0, 0, false};
  auto xbar = revamp_array(p);
  EXPECT_THROW((void)execute_revamp_program(xbar, p, ~0ULL),
               std::invalid_argument);
}

// --- planted mapper bugs ------------------------------------------------------

const std::vector<BenchmarkCircuit>& suite() {
  static const auto s = standard_suite();
  return s;
}

class PlantedMapperBug : public ::testing::TestWithParam<std::size_t> {
 protected:
  const BenchmarkCircuit& circuit() const { return suite()[GetParam()]; }
};

TEST_P(PlantedMapperBug, SwappedImplyOperandsFail) {
  const Mapped m(circuit().netlist);
  ASSERT_TRUE(verify_imply(m.imply, m.aig));
  // The last IMPLY completes an output: swapping it rewrites its source and
  // leaves the output one step short.
  auto p = m.imply;
  const auto it =
      std::find_if(p.instrs.rbegin(), p.instrs.rend(), [](const auto& ins) {
        return ins.kind == ImplyInstr::Kind::kImply;
      });
  ASSERT_NE(it, p.instrs.rend());
  std::swap(it->dest, it->src);
  EXPECT_FALSE(verify_imply(p, m.aig)) << circuit().name;
}

TEST_P(PlantedMapperBug, DroppedMagicSetFails) {
  const Mapped m(circuit().netlist);
  ASSERT_TRUE(verify_magic(m.magic, m.nor));
  // The first SET presets a fresh cell; without it the NOR can only RESET
  // a cell that already reads 0.
  auto p = m.magic;
  const auto it =
      std::find_if(p.instrs.begin(), p.instrs.end(), [](const auto& ins) {
        return ins.kind == MagicInstr::Kind::kSet;
      });
  ASSERT_NE(it, p.instrs.end());
  p.instrs.erase(it);
  EXPECT_FALSE(verify_magic(p, m.nor)) << circuit().name;
}

TEST_P(PlantedMapperBug, FlippedRevampComplementFails) {
  const Mapped m(circuit().netlist);
  ASSERT_TRUE(verify_revamp(m.revamp, m.mig));
  // The last Apply is a majority step of the top level, whose nodes are
  // outputs: flip the complement of its first bitline operand.
  auto p = m.revamp;
  const auto it =
      std::find_if(p.instrs.rbegin(), p.instrs.rend(), [](const auto& ins) {
        return ins.kind == RevampInstruction::Kind::kApply;
      });
  ASSERT_NE(it, p.instrs.rend());
  const auto col = std::find_if(it->columns.begin(), it->columns.end(),
                                [](const auto& c) { return c.has_value(); });
  ASSERT_NE(col, it->columns.end());
  (*col)->complemented = !(*col)->complemented;
  EXPECT_FALSE(verify_revamp(p, m.mig)) << circuit().name;
}

INSTANTIATE_TEST_SUITE_P(Circuits, PlantedMapperBug,
                         ::testing::Range<std::size_t>(0, suite().size()),
                         [](const auto& info) {
                           return suite()[info.param].name;
                         });

}  // namespace
}  // namespace cim::eda
