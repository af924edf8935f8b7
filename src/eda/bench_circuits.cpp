#include "eda/bench_circuits.hpp"

#include <stdexcept>

#include "eda/aig.hpp"
#include "eda/truth_table.hpp"

namespace cim::eda {

Netlist ripple_carry_adder(int bits) {
  if (bits < 1 || bits > 8)
    throw std::invalid_argument("ripple_carry_adder: bits in [1,8]");
  Netlist nl;
  std::vector<std::size_t> a, b;
  for (int i = 0; i < bits; ++i) a.push_back(nl.add_input("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i) b.push_back(nl.add_input("b" + std::to_string(i)));
  std::size_t carry = nl.add_input("cin");

  for (int i = 0; i < bits; ++i) {
    const auto axb = nl.add_gate(GateType::kXor, {a[static_cast<std::size_t>(i)],
                                                  b[static_cast<std::size_t>(i)]});
    const auto sum = nl.add_gate(GateType::kXor, {axb, carry});
    const auto c1 = nl.add_gate(GateType::kAnd, {a[static_cast<std::size_t>(i)],
                                                 b[static_cast<std::size_t>(i)]});
    const auto c2 = nl.add_gate(GateType::kAnd, {axb, carry});
    carry = nl.add_gate(GateType::kOr, {c1, c2});
    nl.mark_output(sum);
  }
  nl.mark_output(carry);
  return nl;
}

Netlist array_multiplier(int bits) {
  if (bits < 1 || bits > 4)
    throw std::invalid_argument("array_multiplier: bits in [1,4]");
  Netlist nl;
  std::vector<std::size_t> a, b;
  for (int i = 0; i < bits; ++i) a.push_back(nl.add_input("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i) b.push_back(nl.add_input("b" + std::to_string(i)));

  // Partial products pp[i][j] = a_i & b_j, accumulated column-wise with
  // half/full adders.
  const int out_bits = 2 * bits;
  std::vector<std::vector<std::size_t>> columns(static_cast<std::size_t>(out_bits));
  for (int i = 0; i < bits; ++i)
    for (int j = 0; j < bits; ++j)
      columns[static_cast<std::size_t>(i + j)].push_back(
          nl.add_gate(GateType::kAnd, {a[static_cast<std::size_t>(i)],
                                       b[static_cast<std::size_t>(j)]}));

  for (int col = 0; col < out_bits; ++col) {
    auto& stack = columns[static_cast<std::size_t>(col)];
    while (stack.size() > 1) {
      if (stack.size() >= 3) {
        // Full adder on three column bits.
        const auto x = stack.back(); stack.pop_back();
        const auto y = stack.back(); stack.pop_back();
        const auto z = stack.back(); stack.pop_back();
        const auto xy = nl.add_gate(GateType::kXor, {x, y});
        const auto sum = nl.add_gate(GateType::kXor, {xy, z});
        const auto carry = nl.add_gate(GateType::kMaj, {x, y, z});
        stack.push_back(sum);
        if (col + 1 < out_bits)
          columns[static_cast<std::size_t>(col + 1)].push_back(carry);
      } else {
        // Half adder on two column bits.
        const auto x = stack.back(); stack.pop_back();
        const auto y = stack.back(); stack.pop_back();
        const auto sum = nl.add_gate(GateType::kXor, {x, y});
        const auto carry = nl.add_gate(GateType::kAnd, {x, y});
        stack.push_back(sum);
        if (col + 1 < out_bits)
          columns[static_cast<std::size_t>(col + 1)].push_back(carry);
      }
    }
    nl.mark_output(stack.empty() ? nl.add_const(false) : stack.front());
  }
  return nl;
}

Netlist parity(int inputs) {
  if (inputs < 2 || inputs > 16)
    throw std::invalid_argument("parity: inputs in [2,16]");
  Netlist nl;
  std::size_t acc = nl.add_input();
  for (int i = 1; i < inputs; ++i) {
    const auto x = nl.add_input();
    acc = nl.add_gate(GateType::kXor, {acc, x});
  }
  nl.mark_output(acc);
  return nl;
}

Netlist mux_tree(int sel_bits) {
  if (sel_bits < 1 || sel_bits > 4)
    throw std::invalid_argument("mux_tree: sel_bits in [1,4]");
  Netlist nl;
  const int n_data = 1 << sel_bits;
  std::vector<std::size_t> layer;
  for (int i = 0; i < n_data; ++i)
    layer.push_back(nl.add_input("d" + std::to_string(i)));
  std::vector<std::size_t> sel;
  for (int i = 0; i < sel_bits; ++i)
    sel.push_back(nl.add_input("s" + std::to_string(i)));

  for (int level = 0; level < sel_bits; ++level) {
    const auto s = sel[static_cast<std::size_t>(level)];
    const auto ns = nl.add_gate(GateType::kNot, {s});
    std::vector<std::size_t> next;
    for (std::size_t k = 0; k + 1 < layer.size(); k += 2) {
      const auto lo = nl.add_gate(GateType::kAnd, {ns, layer[k]});
      const auto hi = nl.add_gate(GateType::kAnd, {s, layer[k + 1]});
      next.push_back(nl.add_gate(GateType::kOr, {lo, hi}));
    }
    layer = std::move(next);
  }
  nl.mark_output(layer.front());
  return nl;
}

Netlist comparator_gt(int bits) {
  if (bits < 1 || bits > 8)
    throw std::invalid_argument("comparator_gt: bits in [1,8]");
  Netlist nl;
  std::vector<std::size_t> a, b;
  for (int i = 0; i < bits; ++i) a.push_back(nl.add_input("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i) b.push_back(nl.add_input("b" + std::to_string(i)));

  // gt = OR over i of (a_i & !b_i & equal_above_i)
  std::size_t gt = nl.add_const(false);
  std::size_t eq = nl.add_const(true);
  for (int i = bits - 1; i >= 0; --i) {
    const auto ai = a[static_cast<std::size_t>(i)];
    const auto bi = b[static_cast<std::size_t>(i)];
    const auto nbi = nl.add_gate(GateType::kNot, {bi});
    const auto here = nl.add_gate(GateType::kAnd, {ai, nbi});
    const auto term = nl.add_gate(GateType::kAnd, {eq, here});
    gt = nl.add_gate(GateType::kOr, {gt, term});
    const auto eq_bit = nl.add_gate(GateType::kXnor, {ai, bi});
    eq = nl.add_gate(GateType::kAnd, {eq, eq_bit});
  }
  nl.mark_output(gt);
  return nl;
}

Netlist majority_n(int inputs) {
  if (inputs < 3 || inputs > 9 || inputs % 2 == 0)
    throw std::invalid_argument("majority_n: odd inputs in [3,9]");
  // Exact construction from the truth table through an AIG, then netlist.
  TruthTable tt(inputs);
  for (std::uint64_t m = 0; m < tt.size(); ++m) {
    int ones = 0;
    for (int v = 0; v < inputs; ++v) ones += (m >> v) & 1ULL;
    if (ones > inputs / 2) tt.set(m, true);
  }
  return Aig::from_truth_table(tt).to_netlist();
}

Netlist random_function(int vars, util::Rng& rng) {
  if (vars < 2 || vars > 10)
    throw std::invalid_argument("random_function: vars in [2,10]");
  TruthTable tt(vars);
  for (std::uint64_t m = 0; m < tt.size(); ++m)
    if (rng.bernoulli(0.5)) tt.set(m, true);
  // Guard against degenerate constants.
  if (tt.is_constant()) tt.set(0, !tt.get(0));
  return Aig::from_truth_table(tt).to_netlist();
}

Netlist address_decoder(int bits) {
  if (bits < 1 || bits > 4)
    throw std::invalid_argument("address_decoder: bits in [1,4]");
  Netlist nl;
  std::vector<std::size_t> a, na;
  for (int i = 0; i < bits; ++i) a.push_back(nl.add_input("a" + std::to_string(i)));
  for (int i = 0; i < bits; ++i)
    na.push_back(nl.add_gate(GateType::kNot, {a[static_cast<std::size_t>(i)]}));
  for (int line = 0; line < (1 << bits); ++line) {
    std::vector<std::size_t> terms;
    for (int b = 0; b < bits; ++b)
      terms.push_back(((line >> b) & 1) ? a[static_cast<std::size_t>(b)]
                                        : na[static_cast<std::size_t>(b)]);
    nl.mark_output(bits == 1 ? terms[0] : nl.add_gate(GateType::kAnd, terms));
  }
  return nl;
}

Netlist gray_to_binary(int bits) {
  if (bits < 2 || bits > 12)
    throw std::invalid_argument("gray_to_binary: bits in [2,12]");
  Netlist nl;
  std::vector<std::size_t> g;
  for (int i = 0; i < bits; ++i) g.push_back(nl.add_input("g" + std::to_string(i)));
  // b[n-1] = g[n-1]; b[i] = b[i+1] ^ g[i].
  std::vector<std::size_t> b(static_cast<std::size_t>(bits));
  b[static_cast<std::size_t>(bits - 1)] = g[static_cast<std::size_t>(bits - 1)];
  for (int i = bits - 2; i >= 0; --i)
    b[static_cast<std::size_t>(i)] = nl.add_gate(
        GateType::kXor,
        {b[static_cast<std::size_t>(i + 1)], g[static_cast<std::size_t>(i)]});
  for (int i = 0; i < bits; ++i) nl.mark_output(b[static_cast<std::size_t>(i)]);
  return nl;
}

Netlist alu_slice() {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto cin = nl.add_input("cin");
  const auto op0 = nl.add_input("op0");
  const auto op1 = nl.add_input("op1");

  const auto ab_and = nl.add_gate(GateType::kAnd, {a, b});
  const auto ab_or = nl.add_gate(GateType::kOr, {a, b});
  const auto ab_xor = nl.add_gate(GateType::kXor, {a, b});
  const auto sum = nl.add_gate(GateType::kXor, {ab_xor, cin});
  const auto cout = nl.add_gate(GateType::kMaj, {a, b, cin});

  // 4:1 mux on (op1, op0): 00->AND, 01->OR, 10->XOR, 11->SUM.
  const auto nop0 = nl.add_gate(GateType::kNot, {op0});
  const auto nop1 = nl.add_gate(GateType::kNot, {op1});
  const auto s_and = nl.add_gate(GateType::kAnd, {ab_and, nop1, nop0});
  const auto s_or = nl.add_gate(GateType::kAnd, {ab_or, nop1, op0});
  const auto s_xor = nl.add_gate(GateType::kAnd, {ab_xor, op1, nop0});
  const auto s_sum = nl.add_gate(GateType::kAnd, {sum, op1, op0});
  nl.mark_output(nl.add_gate(GateType::kOr, {s_and, s_or, s_xor, s_sum}));
  nl.mark_output(cout);
  return nl;
}

std::vector<BenchmarkCircuit> standard_suite(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<BenchmarkCircuit> suite;
  suite.push_back({"xor2", parity(2)});
  suite.push_back({"parity8", parity(8)});
  suite.push_back({"rca2", ripple_carry_adder(2)});
  suite.push_back({"rca4", ripple_carry_adder(4)});
  suite.push_back({"mult2", array_multiplier(2)});
  suite.push_back({"mult3", array_multiplier(3)});
  suite.push_back({"mux4", mux_tree(2)});
  suite.push_back({"mux8", mux_tree(3)});
  suite.push_back({"cmp4", comparator_gt(4)});
  suite.push_back({"maj5", majority_n(5)});
  suite.push_back({"rand6", random_function(6, rng)});
  suite.push_back({"rand8", random_function(8, rng)});
  // Appended after the original twelve so existing index-based sweeps keep
  // their meaning.
  suite.push_back({"dec3", address_decoder(3)});
  suite.push_back({"gray6", gray_to_binary(6)});
  suite.push_back({"alu1", alu_slice()});
  return suite;
}

}  // namespace cim::eda
