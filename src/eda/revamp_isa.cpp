#include "eda/revamp_isa.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace cim::eda {

std::string RevampOperand::to_string() const {
  std::ostringstream os;
  switch (src) {
    case Src::kConst0: os << "0"; break;
    case Src::kConst1: os << "1"; break;
    case Src::kInput: os << "PI[" << input_index << "]"; break;
    case Src::kDmr: os << "DMR[r" << dmr_row << ",c" << dmr_col << "]"; break;
  }
  if (complemented) os << "'";
  return os.str();
}

std::string RevampInstruction::to_string() const {
  std::ostringstream os;
  if (kind == Kind::kRead) {
    os << "READ  r" << wordline;
    return os.str();
  }
  os << "APPLY r" << wordline << ", wl=" << wl.to_string() << ", bl:";
  for (std::size_t c = 0; c < columns.size(); ++c)
    if (columns[c]) os << " c" << c << "=" << columns[c]->to_string();
  return os.str();
}

std::size_t RevampProgram::read_count() const {
  std::size_t n = 0;
  for (const auto& ins : instrs)
    if (ins.kind == RevampInstruction::Kind::kRead) ++n;
  return n;
}

std::size_t RevampProgram::apply_count() const {
  return instrs.size() - read_count();
}

std::string RevampProgram::disassemble() const {
  std::ostringstream os;
  os << "; ReVAMP program: " << wordlines << " wordlines x " << bitlines
     << " bitlines, " << num_inputs << " primary inputs\n";
  for (std::size_t k = 0; k < instrs.size(); ++k)
    os << k << ":\t" << instrs[k].to_string() << "\n";
  os << "; outputs:";
  for (const auto& o : outputs) os << " " << o.to_string();
  os << "\n";
  return os.str();
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// A node's cell: (row, col), row kNone until the node is placed.
using Placement = std::vector<std::pair<std::size_t, std::size_t>>;

/// Maps an MIG literal to a ReVAMP operand, given the node placements and
/// each node's primary-input index (kNone for a non-input), both by node.
RevampOperand operand_of(Mig::Lit lit, const Placement& placed,
                         const std::vector<std::size_t>& input_index) {
  RevampOperand op;
  op.complemented = Mig::is_complemented(lit);
  const auto node = Mig::node_of(lit);
  if (node == 0) {
    op.src = op.complemented ? RevampOperand::Src::kConst1
                             : RevampOperand::Src::kConst0;
    op.complemented = false;
    return op;
  }
  if (node < input_index.size() && input_index[node] != kNone) {
    op.src = RevampOperand::Src::kInput;
    op.input_index = input_index[node];
    return op;
  }
  if (node >= placed.size() || placed[node].first == kNone)
    throw std::logic_error("assemble_revamp: operand not yet computed");
  op.src = RevampOperand::Src::kDmr;
  op.dmr_row = placed[node].first;
  op.dmr_col = placed[node].second;
  return op;
}

}  // namespace

RevampProgram assemble_revamp(const Mig& mig, const MajSchedule& sched) {
  for (const auto& p : sched.plan)
    if (p.node >= mig.num_nodes() || p.row >= sched.rows ||
        p.col >= sched.max_row_width)
      throw std::invalid_argument(
          "assemble_revamp: plan entry past the MIG's nodes or the "
          "schedule's rows or row width");
  RevampProgram prog;
  prog.wordlines = std::max<std::size_t>(1, sched.rows);
  prog.bitlines = std::max<std::size_t>(1, sched.max_row_width);
  prog.num_inputs = mig.num_inputs();

  std::vector<std::size_t> input_index(mig.num_nodes(), kNone);
  for (std::size_t k = 0; k < mig.input_nodes().size(); ++k)
    input_index[mig.input_nodes()[k]] = k;
  Placement placed(mig.num_nodes(), {kNone, 0});

  const auto read_rows = [&](const std::vector<bool>& rows) {
    for (std::size_t r = 0; r < rows.size(); ++r)
      if (rows[r])
        prog.instrs.push_back({RevampInstruction::Kind::kRead, r, {}, {}, {}});
  };
  const auto apply_on = [&](std::size_t row, const RevampOperand& wl) {
    RevampInstruction ins{RevampInstruction::Kind::kApply, row, wl, {}, {}};
    ins.columns.assign(prog.bitlines, std::nullopt);
    return ins;
  };

  // Group plan entries by row (the schedule emits them level by level).
  std::vector<std::vector<const MajNodePlan*>> by_row(sched.rows);
  for (const auto& p : sched.plan) by_row[p.row].push_back(&p);
  // RESET, PRELOAD and about one READ per row, at most one Apply per entry.
  prog.instrs.reserve(3 * sched.rows + sched.plan.size());
  std::vector<const MajNodePlan*> groups;

  for (std::size_t row = 0; row < by_row.size(); ++row) {
    const auto& nodes = by_row[row];
    if (nodes.empty()) continue;
    // READ every producer row this level consumes.
    std::vector<bool> needs_read(prog.wordlines, false);
    for (const auto* p : nodes) {
      for (const Mig::Lit lit : {p->preload, p->shared, p->per_column}) {
        const auto node = Mig::node_of(lit);
        if (node < placed.size() && placed[node].first != kNone)
          needs_read[placed[node].first] = true;
      }
    }
    read_rows(needs_read);

    // APPLY #1: RESET the level's row (wl = 0, bl = 1 on active columns:
    // MAJ(S, 0, !1) = 0).
    auto reset = apply_on(row, {RevampOperand::Src::kConst0, 0, 0, 0, false});
    for (const auto* p : nodes) {
      reset.columns[p->col] = RevampOperand{RevampOperand::Src::kConst1,
                                            0, 0, 0, false};
      reset.def_nodes.push_back(p->node);
    }
    prog.instrs.push_back(std::move(reset));

    // APPLY #2: PRELOAD (wl = 1, bl = !preload: MAJ(0, 1, preload)).
    auto preload =
        apply_on(row, {RevampOperand::Src::kConst1, 0, 0, 0, false});
    for (const auto* p : nodes) {
      preload.columns[p->col] =
          operand_of(Mig::lnot(p->preload), placed, input_index);
      preload.def_nodes.push_back(p->node);
    }
    prog.instrs.push_back(std::move(preload));

    // APPLY #3..: one instruction per shared-literal group, in ascending
    // literal order; members keep their plan (and address) order.
    groups.assign(nodes.begin(), nodes.end());
    std::sort(groups.begin(), groups.end(), [](auto* a, auto* b) {
      return a->shared != b->shared ? a->shared < b->shared : a < b;
    });
    for (std::size_t g = 0; g < groups.size();) {
      const Mig::Lit shared = groups[g]->shared;
      auto apply = apply_on(row, operand_of(shared, placed, input_index));
      for (; g < groups.size() && groups[g]->shared == shared; ++g) {
        const MajNodePlan& p = *groups[g];
        // V_bl carries the complement.
        apply.columns[p.col] =
            operand_of(Mig::lnot(p.per_column), placed, input_index);
        apply.def_nodes.push_back(p.node);
      }
      prog.instrs.push_back(std::move(apply));
    }

    for (const auto* p : nodes) placed[p->node] = {p->row, p->col};
  }

  // Output taps.
  for (const auto o : mig.outputs())
    prog.outputs.push_back(operand_of(o, placed, input_index));

  // Final READs so every DMR-sourced output is latched.
  std::vector<bool> need(prog.wordlines, false);
  for (const auto& o : prog.outputs)
    if (o.src == RevampOperand::Src::kDmr) need[o.dmr_row] = true;
  read_rows(need);
  return prog;
}

std::vector<bool> execute_revamp_program(crossbar::Crossbar& xbar,
                                         const RevampProgram& prog,
                                         std::uint64_t assignment) {
  if (xbar.rows() < prog.wordlines || xbar.cols() < prog.bitlines)
    throw std::invalid_argument("execute_revamp_program: array too small");
  // The span mirrors the crossbar's own charge accounting so measured
  // program cost can be cross-checked against verify::estimate_cost.
  CIM_OBS_SPAN_NAMED(span, "eda.exec.revamp", obs::Component::kArray);
  const double t0 = xbar.stats().time_ns;
  const double e0 = xbar.stats().energy_pj;

  std::map<std::size_t, std::vector<bool>> dmr;

  auto resolve = [&](const RevampOperand& op) -> bool {
    bool v = false;
    switch (op.src) {
      case RevampOperand::Src::kConst0: v = false; break;
      case RevampOperand::Src::kConst1: v = true; break;
      case RevampOperand::Src::kInput:
        if (op.input_index >= std::min<std::size_t>(prog.num_inputs, 64))
          throw std::invalid_argument(
              "execute_revamp_program: input index past num_inputs or 64");
        v = (assignment >> op.input_index) & 1ULL;
        break;
      case RevampOperand::Src::kDmr: {
        const auto it = dmr.find(op.dmr_row);
        if (it == dmr.end())
          throw std::logic_error("execute_revamp_program: DMR row not latched");
        v = it->second.at(op.dmr_col);
        break;
      }
    }
    return op.complemented ? !v : v;
  };

  for (const auto& ins : prog.instrs) {
    if (ins.kind == RevampInstruction::Kind::kRead) {
      std::vector<bool> word(prog.bitlines);
      for (std::size_t c = 0; c < prog.bitlines; ++c)
        word[c] = xbar.read_bit(ins.wordline, c);
      dmr[ins.wordline] = std::move(word);
      continue;
    }
    const bool v_wl = resolve(ins.wl);
    for (std::size_t c = 0; c < ins.columns.size(); ++c) {
      if (!ins.columns[c]) continue;
      const bool v_bl = resolve(*ins.columns[c]);
      xbar.majority_write(ins.wordline, c, v_wl, v_bl);
    }
  }

  std::vector<bool> out;
  out.reserve(prog.outputs.size());
  for (const auto& o : prog.outputs) out.push_back(resolve(o));
  if (obs::enabled()) {
    span.add_sim_time_ns(xbar.stats().time_ns - t0);
    span.add_energy_pj(xbar.stats().energy_pj - e0);
  }
  return out;
}

}  // namespace cim::eda
