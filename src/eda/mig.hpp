/// \file mig.hpp
/// \brief Majority-Inverter Graph (Section IV.B, Amaru et al. [55]) — the
///        natural representation for ReRAM majority logic (ReVAMP) since
///        the device's intrinsic operation is MAJ3 (Section IV.A).
///
/// Nodes are 3-input majorities with complement edges. Node creation applies
/// the majority axioms
///     M(x, x, y) = x          (majority)
///     M(x, !x, y) = y         (complement-pair)
///     M(!x, !y, !z) = !M(x,y,z)  (self-duality, used for canonicalization)
/// plus structural hashing. AND/OR enter as M(a,b,0) / M(a,b,1).
#pragma once

#include <cstdint>
#include <vector>

#include "eda/aig.hpp"
#include "eda/strash.hpp"
#include "eda/truth_table.hpp"

namespace cim::eda {

/// A Majority-Inverter Graph. Node 0 = constant 0; literal = 2*node+compl.
class Mig {
 public:
  using Lit = std::uint32_t;

  Mig();

  static Lit make_lit(std::uint32_t node, bool complemented) {
    return (node << 1) | static_cast<Lit>(complemented);
  }
  static std::uint32_t node_of(Lit l) { return l >> 1; }
  static bool is_complemented(Lit l) { return l & 1u; }
  static Lit lnot(Lit l) { return l ^ 1u; }

  Lit const0() const { return 0; }
  Lit const1() const { return 1; }

  Lit add_input();

  /// Majority with axiom-based simplification and canonicalization.
  Lit lmaj(Lit a, Lit b, Lit c);
  Lit land(Lit a, Lit b) { return lmaj(a, b, const0()); }
  Lit lor(Lit a, Lit b) { return lmaj(a, b, const1()); }
  Lit lxor(Lit a, Lit b);

  void mark_output(Lit l) { outputs_.push_back(l); }
  const std::vector<Lit>& outputs() const { return outputs_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  /// Number of majority nodes (MIG size metric).
  std::size_t num_majs() const;
  /// Depth in majority levels over the most critical output.
  std::size_t depth() const;

  std::vector<TruthTable> truth_tables() const;

  /// Converts an AIG: AND(a,b) -> M(a,b,0); inverters ride the edges.
  static Mig from_aig(const Aig& aig);

  struct Node {
    Lit fanin[3] = {0, 0, 0};
    bool is_input = false;
  };
  const Node& node(std::uint32_t id) const { return nodes_.at(id); }
  bool is_maj(std::uint32_t id) const { return id != 0 && !nodes_[id].is_input; }
  std::size_t num_nodes() const { return nodes_.size(); }
  const std::vector<std::uint32_t>& input_nodes() const { return inputs_; }

  /// Per-node level (inputs at 0); index by node id.
  std::vector<std::size_t> levels() const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> inputs_;
  std::vector<Lit> outputs_;
  detail::StrashTable strash_;  ///< majority nodes by sorted fanins
};

}  // namespace cim::eda
