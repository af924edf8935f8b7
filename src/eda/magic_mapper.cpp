#include "eda/magic_mapper.hpp"

#include <algorithm>
#include <stdexcept>

#include "eda/bit_slice.hpp"
#include "obs/obs.hpp"

namespace cim::eda {

std::size_t MagicProgram::nor_count() const {
  std::size_t n = 0;
  for (const auto& ins : instrs)
    if (ins.kind == MagicInstr::Kind::kNor) ++n;
  return n;
}

MagicProgram compile_magic(const Netlist& nl, bool reuse_cells) {
  MagicProgram prog;
  prog.num_inputs = nl.num_inputs();

  // Validate the basis: only inputs, constants and NOR gates.
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto t = nl.gate(i).type;
    if (t != GateType::kInput && t != GateType::kConst0 &&
        t != GateType::kConst1 && t != GateType::kNor)
      throw std::invalid_argument("compile_magic: netlist not NOR-only");
  }

  // Fanout counts for cell recycling.
  std::vector<int> remaining(nl.num_nodes(), 0);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i)
    for (const auto f : nl.gate(i).fanins) ++remaining[f];
  for (const auto o : nl.outputs()) ++remaining[o];

  std::size_t next_cell = prog.num_inputs;
  std::vector<std::size_t> free_list;
  auto alloc = [&]() {
    if (reuse_cells && !free_list.empty()) {
      const auto c = free_list.back();
      free_list.pop_back();
      return c;
    }
    return next_cell++;
  };

  // node -> cell. Constants have no cell: NOR over a constant-0 fanin just
  // drops it; a constant-1 fanin forces the gate to 0 (handled statically).
  std::vector<std::size_t> cell(nl.num_nodes(), SIZE_MAX);
  std::vector<int> const_value(nl.num_nodes(), -1);  // -1: not a constant
  {
    std::size_t k = 0;
    for (const auto in : nl.inputs()) cell[in] = k++;
  }

  auto release = [&](std::size_t node) {
    if (!reuse_cells) return;
    if (--remaining[node] == 0 && cell[node] != SIZE_MAX &&
        cell[node] >= prog.num_inputs)
      free_list.push_back(cell[node]);
  };

  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto& g = nl.gate(i);
    switch (g.type) {
      case GateType::kInput:
        break;
      case GateType::kConst0:
        const_value[i] = 0;
        break;
      case GateType::kConst1:
        const_value[i] = 1;
        break;
      case GateType::kNor: {
        bool forced_zero = false;
        std::vector<std::size_t> ins;
        for (const auto f : g.fanins) {
          if (const_value[f] == 1) forced_zero = true;
          else if (const_value[f] == 0) continue;  // neutral for NOR
          else ins.push_back(cell[f]);
        }
        if (forced_zero) {
          const_value[i] = 0;
        } else if (ins.empty()) {
          // NOR of nothing (all fanins const-0) = 1.
          const_value[i] = 1;
        } else {
          const auto out = alloc();
          cell[i] = out;
          prog.instrs.push_back({MagicInstr::Kind::kSet, out, {}, i});
          prog.instrs.push_back({MagicInstr::Kind::kNor, out, ins, i});
        }
        for (const auto f : g.fanins) release(f);
        break;
      }
      default:
        break;  // unreachable (validated above)
    }
  }

  for (const auto o : nl.outputs()) {
    if (const_value[o] >= 0) {
      prog.output_cells.push_back(SIZE_MAX);
      prog.output_is_const.push_back(true);
      prog.const_values.push_back(const_value[o] == 1);
    } else {
      prog.output_cells.push_back(cell[o]);
      prog.output_is_const.push_back(false);
      prog.const_values.push_back(false);
    }
  }
  prog.num_cells = next_cell;
  return prog;
}

std::vector<bool> execute_magic(crossbar::Crossbar& xbar,
                                const MagicProgram& prog,
                                std::uint64_t assignment, std::size_t row) {
  if (xbar.cols() < prog.num_cells)
    throw std::invalid_argument("execute_magic: crossbar row too narrow");
  // The span mirrors the crossbar's own charge accounting so measured
  // program cost can be cross-checked against verify::estimate_cost.
  CIM_OBS_SPAN_NAMED(span, "eda.exec.magic", obs::Component::kArray);
  const double t0 = xbar.stats().time_ns;
  const double e0 = xbar.stats().energy_pj;
  for (std::size_t i = 0; i < prog.num_inputs; ++i)
    xbar.write_bit(row, i, (assignment >> i) & 1ULL);

  for (const auto& ins : prog.instrs) {
    if (ins.kind == MagicInstr::Kind::kSet) {
      xbar.write_bit(row, ins.out_cell, true);
    } else {
      xbar.magic_nor(row, ins.in_cells, ins.out_cell);
    }
  }

  std::vector<bool> out;
  out.reserve(prog.output_cells.size());
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    if (prog.output_is_const[k])
      out.push_back(prog.const_values[k]);
    else
      out.push_back(xbar.read_bit(row, prog.output_cells[k]));
  }
  if (obs::enabled()) {
    span.add_sim_time_ns(xbar.stats().time_ns - t0);
    span.add_energy_pj(xbar.stats().energy_pj - e0);
  }
  return out;
}

bool verify_magic(const MagicProgram& prog, const Netlist& nl) {
  CIM_OBS_SPAN("eda.exec.verify", obs::Component::kDigital);
  const auto spec = nl.truth_tables();
  // A program the executor could not run is wrong, never undefined.
  const auto in_row = [&prog](std::size_t c) { return c < prog.num_cells; };
  const std::size_t outs = spec.size();
  if (prog.num_inputs != nl.num_inputs() || prog.num_inputs > prog.num_cells ||
      prog.output_cells.size() != outs || prog.output_is_const.size() != outs ||
      prog.const_values.size() != outs)
    return false;
  for (const auto& ins : prog.instrs) {
    if (!in_row(ins.out_cell)) return false;
    if (ins.kind != MagicInstr::Kind::kNor) continue;
    if (ins.in_cells.empty()) return false;
    for (const auto c : ins.in_cells)
      if (!in_row(c)) return false;
  }
  for (std::size_t k = 0; k < outs; ++k)
    if (!prog.output_is_const[k] && !in_row(prog.output_cells[k])) return false;

  std::vector<std::uint64_t> cell(prog.num_cells);
  return detail::every_block_matches(
      spec, prog.num_inputs, [&](const auto& in, auto& out) {
        // A fresh row: every cell RESET, then the inputs launched.
        std::fill(cell.begin(), cell.end(), 0);
        std::copy(in.begin(), in.end(), cell.begin());
        for (const auto& ins : prog.instrs) {
          if (ins.kind == MagicInstr::Kind::kSet) {
            cell[ins.out_cell] = ~0ULL;
            continue;
          }
          // The output is conditionally RESET where any input is 1.
          std::uint64_t any = 0;
          for (const auto c : ins.in_cells) any |= cell[c];
          cell[ins.out_cell] &= ~any;
        }
        for (std::size_t k = 0; k < out.size(); ++k)
          out[k] = prog.output_is_const[k]
                       ? (prog.const_values[k] ? ~0ULL : 0)
                       : cell[prog.output_cells[k]];
      });
}

}  // namespace cim::eda
