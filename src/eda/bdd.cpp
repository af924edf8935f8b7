#include "eda/bdd.hpp"

#include <algorithm>
#include <stdexcept>

namespace cim::eda {

BddManager::BddManager(int vars) : vars_(vars) {
  if (vars < 0 || vars > 20)
    throw std::invalid_argument("BddManager: vars in [0,20]");
  nodes_.push_back({-1, 0, 0});  // 0 terminal
  nodes_.push_back({-1, 1, 1});  // 1 terminal
}

BddManager::Ref BddManager::make_node(int var, Ref low, Ref high) {
  if (low == high) return low;  // reduction rule
  const std::uint64_t hash =
      detail::strash_hash(static_cast<std::uint32_t>(var), low, high);
  const Ref found = unique_.find(hash, [&](Ref n) {
    return nodes_[n].var == var && nodes_[n].low == low &&
           nodes_[n].high == high;
  });
  if (found != detail::StrashTable::kAbsent) return found;
  nodes_.push_back({var, low, high});
  const Ref id = static_cast<Ref>(nodes_.size() - 1);
  unique_.insert(hash, id);
  return id;
}

BddManager::Ref BddManager::var(int i) {
  if (i < 0 || i >= vars_) throw std::invalid_argument("BddManager::var");
  return make_node(i, zero(), one());
}

BddManager::Ref BddManager::ite(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == one()) return g;
  if (f == zero()) return h;
  if (g == h) return g;
  if (g == one() && h == zero()) return f;

  const std::uint64_t hash = detail::strash_hash(f, g, h);
  const auto hit = computed_.find(hash, [&](std::uint32_t k) {
    return ite_[k][0] == f && ite_[k][1] == g && ite_[k][2] == h;
  });
  if (hit != detail::StrashTable::kAbsent) return ite_[hit][3];

  // Top variable among the three. The manager's variable order is
  // *descending* index: variable vars-1 sits at the root, variable 0 just
  // above the terminals (matching the truth-table construction, which
  // splits the minterm range on its most significant bit first).
  int top = -1;
  for (const Ref r : {f, g, h})
    if (!is_terminal(r)) top = std::max(top, nodes_[r].var);

  auto cofactor = [&](Ref r, bool value) {
    if (is_terminal(r) || nodes_[r].var != top) return r;
    return value ? nodes_[r].high : nodes_[r].low;
  };

  const Ref hi = ite(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const Ref lo = ite(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const Ref res = make_node(top, lo, hi);
  ite_.push_back({f, g, h, res});
  computed_.insert(hash, static_cast<std::uint32_t>(ite_.size() - 1));
  return res;
}

BddManager::Ref BddManager::bnot(Ref f) { return ite(f, zero(), one()); }
BddManager::Ref BddManager::band(Ref f, Ref g) { return ite(f, g, zero()); }
BddManager::Ref BddManager::bor(Ref f, Ref g) { return ite(f, one(), g); }
BddManager::Ref BddManager::bxor(Ref f, Ref g) { return ite(f, bnot(g), g); }

BddManager::Ref BddManager::from_truth_table(const TruthTable& tt) {
  if (tt.vars() != vars_)
    throw std::invalid_argument("from_truth_table: var count mismatch");
  // Splits the minterm range on its highest variable, low half first. A
  // constant block is its terminal and a block with equal halves is its low
  // half's node, both checked a word at a time: a build down to single
  // minterms reaches the same refs there only through make_node calls that
  // hit, so the node table comes out identical.
  const auto build = [&](auto&& self, std::uint64_t lo, int var) -> Ref {
    const std::uint64_t n = 1ULL << (var + 1), half = n / 2;  // [lo, lo + n)
    bool zeros = true, ones = true, same = true;
    if (n <= 64) {
      const std::uint64_t all = n == 64 ? ~0ULL : (1ULL << n) - 1;
      const std::uint64_t w = (tt.word(lo / 64) >> (lo % 64)) & all;
      zeros = w == 0;
      ones = w == all;
      same = (w >> half) == (w & (all >> half));
    } else {
      for (std::size_t k = lo / 64, m = half / 64, end = k + m; k < end; ++k) {
        const std::uint64_t a = tt.word(k), b = tt.word(k + m);
        zeros = zeros && (a | b) == 0;
        ones = ones && (a & b) == ~0ULL;
        same = same && a == b;
      }
    }
    if (zeros) return zero();
    if (ones) return one();
    if (same) return self(self, lo, var - 1);
    const Ref l = self(self, lo, var - 1);
    const Ref h = self(self, lo + half, var - 1);
    return make_node(var, l, h);
  };
  return build(build, 0, vars_ - 1);
}

bool BddManager::eval(Ref f, std::uint64_t assignment) const {
  while (!is_terminal(f)) {
    const auto& n = nodes_[f];
    f = ((assignment >> n.var) & 1ULL) ? n.high : n.low;
  }
  return f == one();
}

TruthTable BddManager::to_truth_table(Ref f) const {
  TruthTable tt(vars_);
  for (std::uint64_t m = 0; m < tt.size(); ++m)
    if (eval(f, m)) tt.set(m, true);
  return tt;
}

std::size_t BddManager::size(Ref f) const {
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<Ref> stack = {f};
  while (!stack.empty()) {
    const Ref r = stack.back();
    stack.pop_back();
    if (is_terminal(r) || seen[r]) continue;
    seen[r] = 1;
    stack.push_back(nodes_[r].low);
    stack.push_back(nodes_[r].high);
  }
  return static_cast<std::size_t>(std::ranges::count(seen, 1));
}

std::uint64_t BddManager::sat_count(Ref f) const {
  // Memoized count of satisfying paths, scaled by skipped variables.
  // Variable order is descending: below a node with var v live variables
  // v-1 .. 0 (terminals act as var -1).
  std::vector<double> memo(nodes_.size(), -1.0);  // -1: not counted yet
  auto count = [&](auto&& self, Ref r) -> double {
    if (r == zero()) return 0.0;
    if (r == one()) return 1.0;
    if (memo[r] >= 0.0) return memo[r];
    const auto& n = nodes_[r];
    auto weight = [&](Ref child) {
      const int child_var = is_terminal(child) ? -1 : nodes_[child].var;
      return self(self, child) *
             static_cast<double>(1ULL << (n.var - child_var - 1));
    };
    const double c = weight(n.low) + weight(n.high);
    memo[r] = c;
    return c;
  };
  const int top = is_terminal(f) ? -1 : nodes_[f].var;
  const double total =
      count(count, f) * static_cast<double>(1ULL << (vars_ - 1 - top));
  return static_cast<std::uint64_t>(total);
}

}  // namespace cim::eda
