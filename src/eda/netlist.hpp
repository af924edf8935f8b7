/// \file netlist.hpp
/// \brief Gate-level netlists: the hand-off format between logic synthesis
///        and technology mapping (Fig. 8's middle artifacts).
///
/// Nodes are stored in topological order (every fanin index precedes its
/// gate), so simulation and depth computation are single passes. The gates
/// sit in compressed rows: one type array, fanin offsets and one fanin
/// array, so building a netlist allocates nothing per gate. The
/// `to_nor_only` transform rewrites any netlist into the multi-input
/// NOR/NOT basis MAGIC executes natively (Section IV.A).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eda/truth_table.hpp"

namespace cim::eda {

enum class GateType {
  kInput,
  kConst0,
  kConst1,
  kNot,
  kAnd,
  kOr,
  kNand,
  kNor,   ///< multi-input (MAGIC primitive)
  kXor,
  kXnor,
  kMaj,   ///< 3-input majority
};

std::string_view gate_type_name(GateType type);

/// A view of one gate. Its fanins sit in the netlist's fanin array, which
/// the next add_gate on that netlist may reallocate (passing them to that
/// add_gate is fine).
struct Gate {
  GateType type = GateType::kInput;
  std::span<const std::size_t> fanins;
};

/// A combinational netlist with named primary inputs and marked outputs.
class Netlist {
 public:
  /// Adds a primary input; returns its node id.
  std::size_t add_input(std::string name = {});
  std::size_t add_const(bool value);
  /// Adds a gate over existing node ids (must all be < the new id). A
  /// throw leaves the netlist unchanged.
  std::size_t add_gate(GateType type, std::span<const std::size_t> fanins);
  std::size_t add_gate(GateType type,
                       std::initializer_list<std::size_t> fanins) {
    return add_gate(type, std::span<const std::size_t>(fanins));
  }
  /// Marks a node as a primary output (order preserved, repeats allowed).
  void mark_output(std::size_t node);

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  std::size_t num_nodes() const { return types_.size(); }
  Gate gate(std::size_t id) const {
    const std::size_t end = fanin_end_.at(id);
    const std::size_t begin = id == 0 ? 0 : fanin_end_[id - 1];
    return {types_[id], {fanins_.data() + begin, end - begin}};
  }
  const std::vector<std::size_t>& outputs() const { return outputs_; }
  const std::vector<std::size_t>& inputs() const { return inputs_; }
  const std::string& input_name(std::size_t k) const { return input_names_.at(k); }

  /// Gates that are neither inputs nor constants.
  std::size_t gate_count() const;
  std::size_t count(GateType type) const;
  /// Logic depth (inputs/constants at depth 0).
  std::size_t depth() const;

  /// Evaluates all outputs for one input assignment (bit i of `assignment`
  /// drives input i).
  std::vector<bool> simulate(std::uint64_t assignment) const;

  /// Truth table of each output (requires num_inputs <= 16), computed gate
  /// by gate over one word arena; `simulate` is the per-assignment reference.
  std::vector<TruthTable> truth_tables() const;

  /// Structurally rewrites into the {NOR, NOT-as-NOR1} basis. Inputs and
  /// output order are preserved; every non-input gate becomes kNor.
  Netlist to_nor_only() const;

 private:
  // Gate i's fanins: fanins_[i ? fanin_end_[i - 1] : 0, fanin_end_[i]).
  std::vector<GateType> types_;
  std::vector<std::size_t> fanin_end_;
  std::vector<std::size_t> fanins_;
  std::vector<std::size_t> inputs_;
  std::vector<std::string> input_names_;
  std::vector<std::size_t> outputs_;
};

}  // namespace cim::eda
