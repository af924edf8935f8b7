/// \file bdd.hpp
/// \brief Reduced Ordered Binary Decision Diagrams (Section IV.B, [57]) —
///        one of the intermediate representations the synthesis flow can
///        target before technology mapping.
///
/// A small ITE-based package: unique table for canonicity, computed table
/// for memoized ITE. Complement edges are not used (plain ROBDD), which
/// keeps the package simple and canonical per variable order.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "eda/strash.hpp"
#include "eda/truth_table.hpp"

namespace cim::eda {

/// A shared ROBDD manager for a fixed number of variables.
class BddManager {
 public:
  using Ref = std::uint32_t;  ///< index into the node table

  explicit BddManager(int vars);

  int vars() const { return vars_; }
  Ref zero() const { return 0; }
  Ref one() const { return 1; }
  /// BDD of variable i.
  Ref var(int i);

  Ref bnot(Ref f);
  Ref band(Ref f, Ref g);
  Ref bor(Ref f, Ref g);
  Ref bxor(Ref f, Ref g);
  /// if-then-else: the universal connective.
  Ref ite(Ref f, Ref g, Ref h);

  /// Builds the BDD of a truth table (must have the manager's var count).
  Ref from_truth_table(const TruthTable& tt);
  /// Expands a BDD back into a truth table.
  TruthTable to_truth_table(Ref f) const;

  /// Nodes reachable from f (excluding terminals) — the BDD size metric.
  std::size_t size(Ref f) const;
  /// Number of satisfying assignments of f.
  std::uint64_t sat_count(Ref f) const;
  /// Total nodes allocated in the manager.
  std::size_t table_size() const { return nodes_.size(); }

  struct Node {
    int var = -1;   ///< -1 for terminals
    Ref low = 0;
    Ref high = 0;
  };
  const Node& node(Ref f) const { return nodes_.at(f); }
  bool is_terminal(Ref f) const { return f <= 1; }

 private:
  Ref make_node(int var, Ref low, Ref high);
  bool eval(Ref f, std::uint64_t assignment) const;

  int vars_;
  std::vector<Node> nodes_;
  detail::StrashTable unique_;              ///< nodes by (var, low, high)
  std::vector<std::array<Ref, 4>> ite_;     ///< memoized (f, g, h, result)
  detail::StrashTable computed_;            ///< indices into ite_ by (f, g, h)
};

}  // namespace cim::eda
