#include "eda/imply_mapper.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace cim::eda {
namespace {

/// Cell allocator with optional free-list recycling.
class CellAllocator {
 public:
  explicit CellAllocator(std::size_t first, bool reuse)
      : next_(first), reuse_(reuse) {}

  std::size_t alloc() {
    if (reuse_ && !free_.empty()) {
      const std::size_t c = free_.back();
      free_.pop_back();
      return c;
    }
    return next_++;
  }
  void release(std::size_t cell) {
    if (reuse_) free_.push_back(cell);
  }
  std::size_t high_water() const { return next_; }

 private:
  std::size_t next_;
  bool reuse_;
  std::vector<std::size_t> free_;
};

}  // namespace

ImplyProgram compile_imply(const Aig& aig, bool reuse_cells) {
  ImplyProgram prog;
  prog.num_inputs = aig.num_inputs();
  prog.zero_cell = prog.num_inputs;  // cell layout: inputs, z, work cells

  auto emit_false = [&prog](std::size_t d) {
    prog.instrs.push_back({ImplyInstr::Kind::kFalse, d, 0});
  };
  auto emit_imply = [&prog](std::size_t d, std::size_t s) {
    prog.instrs.push_back({ImplyInstr::Kind::kImply, d, s});
  };
  // TRUE(d) macro.
  auto emit_true = [&](std::size_t d) {
    emit_false(d);
    emit_imply(d, prog.zero_cell);
  };

  emit_false(prog.zero_cell);  // establish the constant-0 cell
  prog.instrs.back().def_node = 0;  // resident: the constant node

  CellAllocator alloc(prog.num_inputs + 1, reuse_cells);

  // Remaining uses of each *node* (either polarity); when a node's uses hit
  // zero both of its literal cells can be recycled. Complement cells are
  // derived from the positive cell, so lifetimes are tracked per node.
  std::vector<int> node_uses(aig.num_nodes(), 0);
  for (std::uint32_t i = 1; i < aig.num_nodes(); ++i) {
    if (aig.is_and(i)) {
      const auto& n = aig.node(i);
      ++node_uses[Aig::node_of(n.fanin0)];
      ++node_uses[Aig::node_of(n.fanin1)];
    }
  }
  for (const auto o : aig.outputs()) ++node_uses[Aig::node_of(o)];

  // cells[lit] = cell currently holding that literal's value (SIZE_MAX: none).
  std::vector<std::size_t> cells(aig.num_nodes() * 2, SIZE_MAX);
  cells[0] = prog.zero_cell;                      // const-0 literal
  {
    std::size_t k = 0;
    for (const auto in : aig.input_nodes())
      cells[Aig::make_lit(in, false)] = k++;
  }

  auto consume = [&](Aig::Lit l) {
    const auto node = Aig::node_of(l);
    if (node == 0 || --node_uses[node] > 0) return;
    for (const Aig::Lit lit :
         {Aig::make_lit(node, false), Aig::make_lit(node, true)}) {
      const std::size_t c = cells[lit];
      // Never recycle inputs or the zero cell.
      if (c != SIZE_MAX && c > prog.zero_cell) {
        alloc.release(c);
        cells[lit] = SIZE_MAX;
      }
    }
  };

  // Materializes literal l into a cell (creating the complement if needed).
  // The returned cell must not be written by the caller.
  auto cell_of = [&](Aig::Lit l) -> std::size_t {
    if (cells[l] != SIZE_MAX) return cells[l];
    // Only complements should be missing: build !x from x.
    const Aig::Lit pos = Aig::lnot(l);
    if (cells[pos] == SIZE_MAX)
      throw std::logic_error("compile_imply: literal not available");
    const std::size_t d = alloc.alloc();
    emit_true(d);
    emit_imply(d, cells[pos]);  // d = value(pos)
    emit_imply(d, prog.zero_cell);  // d = !value(pos)
    prog.instrs.back().def_node = Aig::node_of(pos);
    cells[l] = d;
    return d;
  };

  // Handle the degenerate const-1 literal.
  auto ensure_const1 = [&]() -> std::size_t {
    if (cells[1] == SIZE_MAX) {
      const std::size_t d = alloc.alloc();
      emit_true(d);
      prog.instrs.back().def_node = 0;  // resident: the constant node
      cells[1] = d;
    }
    return cells[1];
  };

  for (std::uint32_t i = 1; i < aig.num_nodes(); ++i) {
    if (!aig.is_and(i)) continue;
    const auto& n = aig.node(i);

    // AND(x, y) = !(!x | !y): u = COPY(x); u = IMPLY(u, cell(!y)) -> !x|!y;
    // u = NOT(u).
    const std::size_t cx = cell_of(n.fanin0);
    const std::size_t cny = cell_of(Aig::lnot(n.fanin1));
    const std::size_t u = alloc.alloc();
    emit_true(u);                    // u = 1
    emit_imply(u, cx);               // u = x          (COPY)
    emit_imply(u, cny);              // u = !x | !y  = NAND(x,y)
    emit_imply(u, prog.zero_cell);   // u = x & y      (NOT)
    prog.instrs.back().def_node = i;
    cells[Aig::make_lit(i, false)] = u;

    consume(n.fanin0);
    consume(n.fanin1);
  }

  // Outputs: make sure each output literal has a cell.
  for (const auto o : aig.outputs()) {
    std::size_t c;
    if (o == 0) {
      c = prog.zero_cell;
    } else if (o == 1) {
      c = ensure_const1();
    } else {
      c = cell_of(o);
    }
    prog.output_cells.push_back(c);
  }

  prog.num_cells = alloc.high_water();
  return prog;
}

std::vector<bool> execute_imply(crossbar::Crossbar& xbar,
                                const ImplyProgram& prog,
                                std::uint64_t assignment, std::size_t row) {
  if (xbar.cols() < prog.num_cells)
    throw std::invalid_argument("execute_imply: crossbar row too narrow");
  // The span mirrors the crossbar's own charge accounting so measured
  // program cost can be cross-checked against verify::estimate_cost.
  CIM_OBS_SPAN_NAMED(span, "eda.exec.imply", obs::Component::kArray);
  const double t0 = xbar.stats().time_ns;
  const double e0 = xbar.stats().energy_pj;
  for (std::size_t i = 0; i < prog.num_inputs; ++i)
    xbar.write_bit(row, i, (assignment >> i) & 1ULL);

  for (const auto& ins : prog.instrs) {
    if (ins.kind == ImplyInstr::Kind::kFalse)
      xbar.set_false(row, ins.dest);
    else
      xbar.imply(row, ins.dest, row, ins.src);
  }

  std::vector<bool> out;
  out.reserve(prog.output_cells.size());
  for (const auto c : prog.output_cells) out.push_back(xbar.read_bit(row, c));
  if (obs::enabled()) {
    span.add_sim_time_ns(xbar.stats().time_ns - t0);
    span.add_energy_pj(xbar.stats().energy_pj - e0);
  }
  return out;
}

}  // namespace cim::eda
