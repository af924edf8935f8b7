/// \file bit_slice.hpp
/// \brief The block loop shared by the word-level functional verifiers
///        (verify_imply, verify_magic, verify_revamp): assignment 64k + j
///        rides bit j of block k, so each micro-op is one host instruction
///        over 64 assignments — the host-side form of SIMD MAGIC [70],
///        where one instruction fires on every lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eda/truth_table.hpp"

namespace cim::eda::detail {

/// Runs `block(in, out)` once per block of 64 assignments of `num_inputs`
/// variables: in[i] is input i's word (from TruthTable::var) and the block
/// writes out[o] for every spec output. True iff every output word equals
/// the spec's on every assignment (lanes past 2^inputs are ignored).
template <class Block>
bool every_block_matches(const std::vector<TruthTable>& spec,
                         std::size_t num_inputs, Block&& block) {
  const int vars = static_cast<int>(num_inputs);
  std::vector<TruthTable> var_tts;
  var_tts.reserve(num_inputs);
  for (int i = 0; i < vars; ++i) var_tts.push_back(TruthTable::var(i, vars));
  const std::uint64_t assignments = 1ULL << vars;
  const std::uint64_t lanes =
      assignments >= 64 ? ~0ULL : (1ULL << assignments) - 1;
  std::vector<std::uint64_t> in(num_inputs);
  std::vector<std::uint64_t> out(spec.size());
  for (std::size_t k = 0; k < (assignments + 63) / 64; ++k) {
    for (std::size_t i = 0; i < num_inputs; ++i) in[i] = var_tts[i].word(k);
    block(in, out);
    for (std::size_t o = 0; o < spec.size(); ++o)
      if (((out[o] ^ spec[o].word(k)) & lanes) != 0) return false;
  }
  return true;
}

}  // namespace cim::eda::detail
