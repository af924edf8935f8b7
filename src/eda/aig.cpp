#include "eda/aig.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "eda/bit_slice.hpp"

namespace cim::eda {

Aig::Aig() {
  nodes_.push_back({});  // node 0 = constant 0
}

Aig::Lit Aig::add_input() {
  Node n;
  n.is_input = true;
  nodes_.push_back(n);
  const auto id = static_cast<std::uint32_t>(nodes_.size() - 1);
  inputs_.push_back(id);
  return make_lit(id, false);
}

Aig::Lit Aig::land(Lit a, Lit b) {
  // Trivial rules.
  if (a > b) std::swap(a, b);
  if (a == const0()) return const0();
  if (a == const1()) return b;
  if (a == b) return a;
  if (a == lnot(b)) return const0();

  const std::uint64_t hash = detail::strash_hash(a, b);
  auto id = strash_.find(hash, [&](std::uint32_t n) {
    return nodes_[n].fanin0 == a && nodes_[n].fanin1 == b;
  });
  if (id == detail::StrashTable::kAbsent) {
    id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({a, b, false});
    strash_.insert(hash, id);
  }
  return make_lit(id, false);
}

Aig::Lit Aig::lxor(Lit a, Lit b) {
  // a ^ b = !(!(a & !b) & !(!a & b))
  return lnot(land(lnot(land(a, lnot(b))), lnot(land(lnot(a), b))));
}

Aig::Lit Aig::lmux(Lit sel, Lit t, Lit e) {
  return lnot(land(lnot(land(sel, t)), lnot(land(lnot(sel), e))));
}

Aig::Lit Aig::lmaj(Lit a, Lit b, Lit c) {
  return lor(land(a, b), lor(land(a, c), land(b, c)));
}

std::size_t Aig::num_ands() const {
  std::size_t n = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    if (!nodes_[i].is_input) ++n;
  return n;
}

std::size_t Aig::depth() const {
  std::vector<std::size_t> d(nodes_.size(), 0);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].is_input) continue;
    d[i] = 1 + std::max(d[node_of(nodes_[i].fanin0)],
                        d[node_of(nodes_[i].fanin1)]);
  }
  std::size_t best = 0;
  for (const auto o : outputs_) best = std::max(best, d[node_of(o)]);
  return best;
}

std::vector<TruthTable> Aig::truth_tables() const {
  detail::TableArena arena(nodes_.size(), inputs_);
  const std::size_t width = arena.width();
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].is_input) continue;
    const Lit f0 = nodes_[i].fanin0, f1 = nodes_[i].fanin1;
    const std::uint64_t* a = arena.row(node_of(f0));
    const std::uint64_t* b = arena.row(node_of(f1));
    const std::uint64_t na = is_complemented(f0) ? ~0ULL : 0;
    const std::uint64_t nb = is_complemented(f1) ? ~0ULL : 0;
    std::uint64_t* v = arena.row(i);
    for (std::size_t k = 0; k < width; ++k) v[k] = (a[k] ^ na) & (b[k] ^ nb);
  }
  std::vector<TruthTable> out;
  out.reserve(outputs_.size());
  for (const auto o : outputs_)
    out.push_back(arena.table(node_of(o), is_complemented(o)));
  return out;
}

namespace {

Aig::Lit shannon(Aig& aig, const TruthTable& tt, int var,
                 const std::vector<Aig::Lit>& input_lits,
                 std::map<std::string, Aig::Lit>& memo) {
  if (tt.is_constant())
    return tt.count_ones() ? aig.const1() : aig.const0();

  const auto key = tt.to_binary_string();
  if (auto it = memo.find(key); it != memo.end()) return it->second;

  // Find the next variable the function actually depends on.
  int v = var;
  while (v >= 0 && !tt.depends_on(v)) --v;
  if (v < 0)
    return tt.count_ones() ? aig.const1() : aig.const0();

  const auto hi = shannon(aig, tt.cofactor(v, true), v - 1, input_lits, memo);
  const auto lo = shannon(aig, tt.cofactor(v, false), v - 1, input_lits, memo);
  const auto res =
      aig.lmux(input_lits[static_cast<std::size_t>(v)], hi, lo);
  memo.emplace(key, res);
  return res;
}

}  // namespace

Aig Aig::from_truth_table(const TruthTable& tt) {
  Aig aig;
  std::vector<Lit> input_lits;
  input_lits.reserve(static_cast<std::size_t>(tt.vars()));
  for (int i = 0; i < tt.vars(); ++i) input_lits.push_back(aig.add_input());
  std::map<std::string, Lit> memo;
  aig.mark_output(shannon(aig, tt, tt.vars() - 1, input_lits, memo));
  return aig;
}

Aig Aig::from_netlist(const Netlist& nl) {
  Aig aig;
  std::vector<Lit> map(nl.num_nodes(), 0);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const Gate g = nl.gate(i);
    auto fan = [&](std::size_t k) { return map[g.fanins[k]]; };
    switch (g.type) {
      case GateType::kInput:
        map[i] = aig.add_input();
        break;
      case GateType::kConst0:
        map[i] = aig.const0();
        break;
      case GateType::kConst1:
        map[i] = aig.const1();
        break;
      case GateType::kNot:
        map[i] = lnot(fan(0));
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        Lit acc = aig.const1();
        for (std::size_t k = 0; k < g.fanins.size(); ++k)
          acc = aig.land(acc, fan(k));
        map[i] = (g.type == GateType::kNand) ? lnot(acc) : acc;
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        Lit acc = aig.const0();
        for (std::size_t k = 0; k < g.fanins.size(); ++k)
          acc = aig.lor(acc, fan(k));
        map[i] = (g.type == GateType::kNor) ? lnot(acc) : acc;
        break;
      }
      case GateType::kXor:
        map[i] = aig.lxor(fan(0), fan(1));
        break;
      case GateType::kXnor:
        map[i] = lnot(aig.lxor(fan(0), fan(1)));
        break;
      case GateType::kMaj:
        map[i] = aig.lmaj(fan(0), fan(1), fan(2));
        break;
    }
  }
  for (const auto o : nl.outputs()) aig.mark_output(map[o]);
  return aig;
}

Netlist Aig::to_netlist() const {
  Netlist nl;
  std::vector<std::size_t> pos_id(nodes_.size());   // netlist id of node value
  std::vector<std::size_t> neg_id(nodes_.size(), SIZE_MAX);  // NOT of it

  const std::size_t const0_id = nl.add_const(false);
  pos_id[0] = const0_id;

  auto get = [&](Lit l, auto&& ensure_neg) -> std::size_t {
    const auto n = node_of(l);
    if (!is_complemented(l)) return pos_id[n];
    return ensure_neg(n);
  };
  auto ensure_neg = [&](std::uint32_t n) -> std::size_t {
    if (neg_id[n] == SIZE_MAX)
      neg_id[n] = nl.add_gate(GateType::kNot, {pos_id[n]});
    return neg_id[n];
  };

  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].is_input) {
      pos_id[i] = nl.add_input();
      continue;
    }
    const auto a = get(nodes_[i].fanin0, ensure_neg);
    const auto b = get(nodes_[i].fanin1, ensure_neg);
    pos_id[i] = nl.add_gate(GateType::kAnd, {a, b});
  }
  for (const auto o : outputs_) nl.mark_output(get(o, ensure_neg));
  return nl;
}

}  // namespace cim::eda
