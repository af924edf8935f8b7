/// \file aig.hpp
/// \brief And-Inverter Graph — the workhorse intermediate representation of
///        technology-independent synthesis (Section IV.B, [54]).
///
/// Nodes are 2-input ANDs; edges carry complement bits (literals). Creation
/// applies constant/trivial simplification and structural hashing, so the
/// graph is always reduced and shared. Functions enter either gate-by-gate
/// (land/lor/lxor) or via Shannon decomposition from a truth table.
#pragma once

#include <cstdint>
#include <vector>

#include "eda/netlist.hpp"
#include "eda/strash.hpp"
#include "eda/truth_table.hpp"

namespace cim::eda {

/// An And-Inverter Graph. Node 0 is constant 0; literal = 2*node + compl.
class Aig {
 public:
  using Lit = std::uint32_t;

  Aig();

  static Lit make_lit(std::uint32_t node, bool complemented) {
    return (node << 1) | static_cast<Lit>(complemented);
  }
  static std::uint32_t node_of(Lit l) { return l >> 1; }
  static bool is_complemented(Lit l) { return l & 1u; }
  static Lit lnot(Lit l) { return l ^ 1u; }

  Lit const0() const { return 0; }
  Lit const1() const { return 1; }

  /// Adds a primary input; returns its (positive) literal.
  Lit add_input();

  /// AND with simplification + structural hashing.
  Lit land(Lit a, Lit b);
  Lit lor(Lit a, Lit b) { return lnot(land(lnot(a), lnot(b))); }
  Lit lxor(Lit a, Lit b);
  Lit lmux(Lit sel, Lit t, Lit e);  ///< sel ? t : e
  Lit lmaj(Lit a, Lit b, Lit c);

  void mark_output(Lit l) { outputs_.push_back(l); }
  const std::vector<Lit>& outputs() const { return outputs_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  /// Number of AND nodes (the classic AIG size metric).
  std::size_t num_ands() const;
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Depth in AND levels over the most critical output.
  std::size_t depth() const;

  /// Truth tables of all outputs (inputs <= 16).
  std::vector<TruthTable> truth_tables() const;

  /// Builds a single-output AIG via Shannon decomposition with cofactor
  /// memoization.
  static Aig from_truth_table(const TruthTable& tt);

  /// Structurally converts a gate-level netlist (all gate types supported);
  /// preserves input and output order.
  static Aig from_netlist(const Netlist& nl);

  /// Converts to an AND/NOT netlist (complement edges become NOT gates).
  Netlist to_netlist() const;

  /// Node fanins (valid for AND nodes; inputs/const have none).
  struct Node {
    Lit fanin0 = 0;
    Lit fanin1 = 0;
    bool is_input = false;
  };
  const Node& node(std::uint32_t id) const { return nodes_.at(id); }
  bool is_and(std::uint32_t id) const {
    return id != 0 && !nodes_[id].is_input;
  }
  const std::vector<std::uint32_t>& input_nodes() const { return inputs_; }

 private:
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> inputs_;
  std::vector<Lit> outputs_;
  detail::StrashTable strash_;  ///< AND nodes by (fanin0, fanin1)
};

}  // namespace cim::eda
