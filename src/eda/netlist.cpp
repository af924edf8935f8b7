#include "eda/netlist.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "eda/bit_slice.hpp"

namespace cim::eda {

std::string_view gate_type_name(GateType type) {
  switch (type) {
    case GateType::kInput: return "input";
    case GateType::kConst0: return "const0";
    case GateType::kConst1: return "const1";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kOr: return "OR";
    case GateType::kNand: return "NAND";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kMaj: return "MAJ";
  }
  return "unknown";
}

std::size_t Netlist::add_input(std::string name) {
  types_.push_back(GateType::kInput);
  fanin_end_.push_back(fanins_.size());
  inputs_.push_back(types_.size() - 1);
  if (name.empty()) name = "x" + std::to_string(inputs_.size() - 1);
  input_names_.push_back(std::move(name));
  return types_.size() - 1;
}

std::size_t Netlist::add_const(bool value) {
  types_.push_back(value ? GateType::kConst1 : GateType::kConst0);
  fanin_end_.push_back(fanins_.size());
  return types_.size() - 1;
}

std::size_t Netlist::add_gate(GateType type,
                              std::span<const std::size_t> fanins) {
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      throw std::invalid_argument("add_gate: use add_input/add_const");
    case GateType::kNot:
      if (fanins.size() != 1) throw std::invalid_argument("NOT: 1 fanin");
      break;
    case GateType::kMaj:
      if (fanins.size() != 3) throw std::invalid_argument("MAJ: 3 fanins");
      break;
    case GateType::kXor:
    case GateType::kXnor:
      if (fanins.size() != 2) throw std::invalid_argument("XOR/XNOR: 2 fanins");
      break;
    case GateType::kNor:
      // Single-input NOR is a NOT — MAGIC's native inverter.
      if (fanins.empty()) throw std::invalid_argument("NOR: >= 1 fanin");
      break;
    default:
      if (fanins.size() < 2) throw std::invalid_argument("gate: >= 2 fanins");
      break;
  }
  const std::size_t id = types_.size();
  for (const auto f : fanins)
    if (f >= id)
      throw std::invalid_argument(
          "add_gate: fanin " + std::to_string(f) +
          " does not precede the new gate (id " + std::to_string(id) +
          ") — netlists are built in topological order");
  // `fanins` may view fanins_ itself (add_gate(t, gate(j).fanins)): when
  // the array must grow, the copy reads from the old buffer before it goes.
  std::vector<std::size_t> old;
  if (fanins_.capacity() - fanins_.size() < fanins.size()) {
    old.reserve(2 * (fanins_.size() + fanins.size()));
    old.assign(fanins_.begin(), fanins_.end());
    fanins_.swap(old);
  }
  for (const auto f : fanins) fanins_.push_back(f);
  types_.push_back(type);
  fanin_end_.push_back(fanins_.size());
  return id;
}

void Netlist::mark_output(std::size_t node) {
  if (node >= types_.size()) throw std::out_of_range("mark_output");
  outputs_.push_back(node);
}

std::size_t Netlist::gate_count() const {
  std::size_t n = 0;
  for (const auto t : types_)
    if (t != GateType::kInput && t != GateType::kConst0 &&
        t != GateType::kConst1)
      ++n;
  return n;
}

std::size_t Netlist::count(GateType type) const {
  return static_cast<std::size_t>(std::ranges::count(types_, type));
}

std::size_t Netlist::depth() const {
  std::vector<std::size_t> d(types_.size(), 0);
  std::size_t best = 0;
  for (std::size_t i = 0; i < types_.size(); ++i) {
    const Gate g = gate(i);
    if (g.fanins.empty()) continue;
    std::size_t m = 0;
    for (const auto f : g.fanins) m = std::max(m, d[f]);
    d[i] = m + 1;
    best = std::max(best, d[i]);
  }
  return best;
}

std::vector<bool> Netlist::simulate(std::uint64_t assignment) const {
  std::vector<bool> value(types_.size(), false);
  std::size_t input_idx = 0;
  for (std::size_t i = 0; i < types_.size(); ++i) {
    const Gate g = gate(i);
    switch (g.type) {
      case GateType::kInput:
        value[i] = (assignment >> input_idx++) & 1ULL;
        break;
      case GateType::kConst0:
        value[i] = false;
        break;
      case GateType::kConst1:
        value[i] = true;
        break;
      case GateType::kNot:
        value[i] = !value[g.fanins[0]];
        break;
      case GateType::kAnd: {
        bool v = true;
        for (const auto f : g.fanins) v = v && value[f];
        value[i] = v;
        break;
      }
      case GateType::kOr: {
        bool v = false;
        for (const auto f : g.fanins) v = v || value[f];
        value[i] = v;
        break;
      }
      case GateType::kNand: {
        bool v = true;
        for (const auto f : g.fanins) v = v && value[f];
        value[i] = !v;
        break;
      }
      case GateType::kNor: {
        bool v = false;
        for (const auto f : g.fanins) v = v || value[f];
        value[i] = !v;
        break;
      }
      case GateType::kXor:
        value[i] = value[g.fanins[0]] != value[g.fanins[1]];
        break;
      case GateType::kXnor:
        value[i] = value[g.fanins[0]] == value[g.fanins[1]];
        break;
      case GateType::kMaj: {
        const int votes = static_cast<int>(value[g.fanins[0]]) +
                          static_cast<int>(value[g.fanins[1]]) +
                          static_cast<int>(value[g.fanins[2]]);
        value[i] = votes >= 2;
        break;
      }
    }
  }
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const auto o : outputs_) out.push_back(value[o]);
  return out;
}

std::vector<TruthTable> Netlist::truth_tables() const {
  // Gate by gate over whole rows of the arena, in the order simulate walks.
  detail::TableArena arena(types_.size(), inputs_);
  const std::size_t width = arena.width();
  for (std::size_t i = 0; i < types_.size(); ++i) {
    const Gate g = gate(i);
    std::uint64_t* v = arena.row(i);
    const auto in = [&](std::size_t j) { return arena.row(g.fanins[j]); };
    const auto fold = [&](auto op) {
      std::copy_n(in(0), width, v);
      for (std::size_t j = 1; j < g.fanins.size(); ++j) {
        const std::uint64_t* f = in(j);
        for (std::size_t k = 0; k < width; ++k) v[k] = op(v[k], f[k]);
      }
    };
    switch (g.type) {
      case GateType::kInput: case GateType::kConst0: break;
      case GateType::kConst1: std::fill_n(v, width, ~0ULL); break;
      case GateType::kNot:  // a one-fanin NAND
      case GateType::kAnd: case GateType::kNand: fold(std::bit_and<>{}); break;
      case GateType::kOr: case GateType::kNor: fold(std::bit_or<>{}); break;
      case GateType::kXor: case GateType::kXnor: fold(std::bit_xor<>{}); break;
      case GateType::kMaj: {
        const std::uint64_t *a = in(0), *b = in(1), *c = in(2);
        for (std::size_t k = 0; k < width; ++k)
          v[k] = (a[k] & b[k]) | (a[k] & c[k]) | (b[k] & c[k]);
        break;
      }
    }
    if (g.type == GateType::kNot || g.type == GateType::kNand ||
        g.type == GateType::kNor || g.type == GateType::kXnor)
      for (std::size_t k = 0; k < width; ++k) v[k] = ~v[k];
  }
  std::vector<TruthTable> tts;
  tts.reserve(outputs_.size());
  for (const auto o : outputs_) tts.push_back(arena.table(o));
  return tts;
}

Netlist Netlist::to_nor_only() const {
  Netlist out;
  std::vector<std::size_t> map(types_.size());
  std::vector<std::size_t> ins;  // one multi-input NOR's fanins
  std::size_t next_input = 0;

  auto nor1 = [&out](std::size_t a) {
    return out.add_gate(GateType::kNor, {a});
  };
  auto nor2 = [&out](std::size_t a, std::size_t b) {
    return out.add_gate(GateType::kNor, {a, b});
  };
  // NOR over the gate's fanins, each through `in` first.
  auto nor_of = [&](const Gate& g, auto&& in) {
    ins.clear();
    for (const auto f : g.fanins) ins.push_back(in(map[f]));
    return out.add_gate(GateType::kNor, ins);
  };
  const auto same = [](std::size_t a) { return a; };

  for (std::size_t i = 0; i < types_.size(); ++i) {
    const Gate g = gate(i);
    switch (g.type) {
      case GateType::kInput:
        map[i] = out.add_input(input_names_[next_input++]);
        break;
      case GateType::kConst0:
        map[i] = out.add_const(false);
        break;
      case GateType::kConst1:
        map[i] = out.add_const(true);
        break;
      case GateType::kNot:
        map[i] = nor1(map[g.fanins[0]]);
        break;
      case GateType::kNor:
        map[i] = nor_of(g, same);
        break;
      case GateType::kOr:
        map[i] = nor1(nor_of(g, same));
        break;
      case GateType::kAnd:  // AND(a...) = NOR(!a...)
        map[i] = nor_of(g, nor1);
        break;
      case GateType::kNand:
        map[i] = nor1(nor_of(g, nor1));
        break;
      case GateType::kXor:
      case GateType::kXnor: {
        // n1 = NOR(a,b); n2 = NOR(a,n1) = !a b; n3 = NOR(b,n1) = a !b;
        // XNOR = NOR(n2,n3); XOR = NOT(XNOR).
        const std::size_t a = map[g.fanins[0]];
        const std::size_t b = map[g.fanins[1]];
        const std::size_t n1 = nor2(a, b);
        const std::size_t n2 = nor2(a, n1);
        const std::size_t n3 = nor2(b, n1);
        const std::size_t xnor = nor2(n2, n3);
        map[i] = (g.type == GateType::kXnor) ? xnor : nor1(xnor);
        break;
      }
      case GateType::kMaj: {
        const std::size_t na = nor1(map[g.fanins[0]]);
        const std::size_t nb = nor1(map[g.fanins[1]]);
        const std::size_t nc = nor1(map[g.fanins[2]]);
        const std::size_t ab = nor2(na, nb);  // a & b
        const std::size_t ac = nor2(na, nc);
        const std::size_t bc = nor2(nb, nc);
        map[i] = nor1(out.add_gate(GateType::kNor, {ab, ac, bc}));
        break;
      }
    }
  }
  for (const auto o : outputs_) out.mark_output(map[o]);
  return out;
}

}  // namespace cim::eda
