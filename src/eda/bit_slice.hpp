/// \file bit_slice.hpp
/// \brief Word-level evaluation shared by the EDA flow: assignment 64k + j
///        rides bit j of word k, so each gate or micro-op is one host
///        instruction over 64 assignments — the host-side form of SIMD
///        MAGIC [70], where one instruction fires on every lane. The
///        functional verifiers (verify_imply, verify_magic, verify_revamp)
///        run block by block; Netlist, Aig and Mig::truth_tables fill a
///        table arena node by node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "eda/truth_table.hpp"

namespace cim::eda::detail {

/// Word k of input variable i's projection (TruthTable::var's words). Below
/// 6 variables the lanes past 2^vars are left unmasked.
inline std::uint64_t var_word(std::size_t i, std::size_t k) {
  constexpr std::uint64_t kPattern[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  if (i < 6) return kPattern[i];
  return (k >> (i - 6)) & 1 ? ~0ULL : 0;  // whole words, periodically
}

/// Words of one table over `vars` variables.
inline std::size_t table_words(std::size_t vars) {
  return vars < 6 ? 1 : std::size_t{1} << (vars - 6);
}

/// Runs `block(in, out)` once per block of 64 assignments of `num_inputs`
/// variables: in[i] is input i's word and the block writes out[o] for every
/// spec output. True iff every output word equals the spec's on every
/// assignment (lanes past 2^inputs are ignored).
template <class Block>
bool every_block_matches(const std::vector<TruthTable>& spec,
                         std::size_t num_inputs, Block&& block) {
  const std::uint64_t assignments = 1ULL << num_inputs;
  const std::uint64_t lanes =
      assignments >= 64 ? ~0ULL : (1ULL << assignments) - 1;
  std::vector<std::uint64_t> in(num_inputs);
  std::vector<std::uint64_t> out(spec.size());
  for (std::size_t k = 0; k < table_words(num_inputs); ++k) {
    for (std::size_t i = 0; i < num_inputs; ++i) in[i] = var_word(i, k);
    block(in, out);
    for (std::size_t o = 0; o < spec.size(); ++o)
      if (((out[o] ^ spec[o].word(k)) & lanes) != 0) return false;
  }
  return true;
}

/// One flat arena of width() words per node, for truth tables computed node
/// by node in topological order: row inputs[k] starts as input k's
/// projection, every other row as 0. Only the outputs become TruthTables.
class TableArena {
 public:
  template <class Id>
  TableArena(std::size_t nodes, const std::vector<Id>& inputs)
      : vars_(inputs.size()) {
    if (vars_ > 16) throw std::invalid_argument("truth_tables: > 16 inputs");
    width_ = table_words(vars_);
    words_.resize(nodes * width_);
    for (std::size_t i = 0; i < vars_; ++i)
      for (std::size_t k = 0; k < width_; ++k)
        row(inputs[i])[k] = var_word(i, k);
  }

  std::size_t width() const { return width_; }
  std::uint64_t* row(std::size_t node) { return &words_[node * width_]; }

  /// The node's table, complemented on request.
  TruthTable table(std::size_t node, bool complemented = false) const {
    TruthTable t(static_cast<int>(vars_));
    for (std::size_t k = 0; k < width_; ++k)
      t.set_word(k, words_[node * width_ + k] ^ (complemented ? ~0ULL : 0));
    return t;
  }

 private:
  std::size_t vars_;
  std::size_t width_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cim::eda::detail
