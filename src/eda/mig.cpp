#include "eda/mig.hpp"

#include <algorithm>
#include <array>

#include "eda/bit_slice.hpp"

namespace cim::eda {

Mig::Mig() {
  nodes_.push_back({});  // node 0 = constant 0
}

Mig::Lit Mig::add_input() {
  Node n;
  n.is_input = true;
  nodes_.push_back(n);
  const auto id = static_cast<std::uint32_t>(nodes_.size() - 1);
  inputs_.push_back(id);
  return make_lit(id, false);
}

Mig::Lit Mig::lmaj(Lit a, Lit b, Lit c) {
  std::array<Lit, 3> f = {a, b, c};
  std::sort(f.begin(), f.end());

  // Axiom M(x, x, y) = x.
  if (f[0] == f[1]) return f[0];
  if (f[1] == f[2]) return f[1];
  // Axiom M(x, !x, y) = y.
  if (f[0] == lnot(f[1])) return f[2];
  if (f[1] == lnot(f[2])) return f[0];
  if (f[0] == lnot(f[2])) return f[1];

  // Self-duality canonicalization: if two or more fanins are complemented,
  // flip all three and complement the output.
  const int n_compl = static_cast<int>(is_complemented(f[0])) +
                      static_cast<int>(is_complemented(f[1])) +
                      static_cast<int>(is_complemented(f[2]));
  bool out_compl = false;
  if (n_compl >= 2) {
    for (auto& l : f) l = lnot(l);
    std::sort(f.begin(), f.end());
    out_compl = true;
  }

  const std::uint64_t hash = detail::strash_hash(f[0], f[1], f[2]);
  std::uint32_t id = strash_.find(hash, [&](std::uint32_t n) {
    const Lit* g = nodes_[n].fanin;
    return g[0] == f[0] && g[1] == f[1] && g[2] == f[2];
  });
  if (id == detail::StrashTable::kAbsent) {
    id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({{f[0], f[1], f[2]}, false});
    strash_.insert(hash, id);
  }
  return make_lit(id, out_compl);
}

Mig::Lit Mig::lxor(Lit a, Lit b) {
  // XOR(a,b) = M(!M(a,b,0), M(a,b,1), 0) = (a|b) & !(a&b)
  return land(lnot(land(a, b)), lor(a, b));
}

std::size_t Mig::num_majs() const {
  std::size_t n = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    if (!nodes_[i].is_input) ++n;
  return n;
}

std::vector<std::size_t> Mig::levels() const {
  std::vector<std::size_t> d(nodes_.size(), 0);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].is_input) continue;
    std::size_t m = 0;
    for (const auto l : nodes_[i].fanin)
      m = std::max(m, d[node_of(l)]);
    d[i] = m + 1;
  }
  return d;
}

std::size_t Mig::depth() const {
  const auto d = levels();
  std::size_t best = 0;
  for (const auto o : outputs_) best = std::max(best, d[node_of(o)]);
  return best;
}

std::vector<TruthTable> Mig::truth_tables() const {
  detail::TableArena arena(nodes_.size(), inputs_);
  const std::size_t width = arena.width();
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].is_input) continue;
    const std::uint64_t* f[3];
    std::uint64_t flip[3];
    for (int j = 0; j < 3; ++j) {
      f[j] = arena.row(node_of(nodes_[i].fanin[j]));
      flip[j] = is_complemented(nodes_[i].fanin[j]) ? ~0ULL : 0;
    }
    std::uint64_t* v = arena.row(i);
    for (std::size_t k = 0; k < width; ++k) {
      const std::uint64_t a = f[0][k] ^ flip[0], b = f[1][k] ^ flip[1],
                          c = f[2][k] ^ flip[2];
      v[k] = (a & b) | (a & c) | (b & c);
    }
  }
  std::vector<TruthTable> out;
  out.reserve(outputs_.size());
  for (const auto o : outputs_)
    out.push_back(arena.table(node_of(o), is_complemented(o)));
  return out;
}

Mig Mig::from_aig(const Aig& aig) {
  Mig mig;
  std::vector<Lit> map(aig.num_nodes(), 0);

  for (std::uint32_t i = 1; i < aig.num_nodes(); ++i) {
    const auto& n = aig.node(i);
    if (n.is_input) {
      map[i] = mig.add_input();
      continue;
    }
    auto xlate = [&](Aig::Lit l) {
      const auto base = map[Aig::node_of(l)];
      return Aig::is_complemented(l) ? lnot(base) : base;
    };
    map[i] = mig.land(xlate(n.fanin0), xlate(n.fanin1));
  }
  for (const auto o : aig.outputs()) {
    const auto base = map[Aig::node_of(o)];
    mig.mark_output(Aig::is_complemented(o) ? lnot(base) : base);
  }
  return mig;
}

}  // namespace cim::eda
