/// \file truth_table.hpp
/// \brief Dense truth tables — the functional currency of the EDA flow
///        (Section IV / Fig. 8): every representation (AIG, MIG, BDD, ESOP)
///        and every technology mapping is verified against one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cim::eda {

/// A completely specified Boolean function of up to 16 variables, stored as
/// a bit-packed table of 2^n entries (minterm i -> bit i).
class TruthTable {
 public:
  /// Constant-0 function of `vars` variables.
  explicit TruthTable(int vars = 0);

  /// Projection function x_i of `vars` variables.
  static TruthTable var(int i, int vars);
  static TruthTable constant(bool value, int vars);

  /// Parses a binary string, MSB = highest minterm ("0110" = XOR of 2 vars).
  static TruthTable from_binary_string(const std::string& bits);

  int vars() const { return vars_; }
  std::uint64_t size() const { return 1ULL << vars_; }

  bool get(std::uint64_t minterm) const;
  void set(std::uint64_t minterm, bool value);

  /// Packed word k: bit j is minterm 64k + j. Below 6 variables the one
  /// word holds the 2^vars minterms in its low bits and zeros above.
  std::uint64_t word(std::size_t k) const { return words_.at(k); }
  /// Sets packed word k; below 6 variables the bits past 2^vars are masked.
  void set_word(std::size_t k, std::uint64_t w) {
    words_.at(k) = w;
    mask_tail();
  }

  /// Evaluates under an input assignment packed as bits of `assignment`.
  bool eval(std::uint64_t assignment) const { return get(assignment); }

  TruthTable operator&(const TruthTable& other) const;
  TruthTable operator|(const TruthTable& other) const;
  TruthTable operator^(const TruthTable& other) const;
  TruthTable operator~() const;
  bool operator==(const TruthTable& other) const;

  /// Majority of three functions (bitwise).
  static TruthTable maj(const TruthTable& a, const TruthTable& b,
                        const TruthTable& c);

  /// Positive / negative cofactor with respect to variable i.
  TruthTable cofactor(int var, bool value) const;

  /// True iff the function depends on variable i.
  bool depends_on(int var) const;

  bool is_constant() const;
  std::uint64_t count_ones() const;

  /// Binary string, MSB first (inverse of from_binary_string).
  std::string to_binary_string() const;

 private:
  void check_compat(const TruthTable& other) const;
  void mask_tail();

  int vars_;
  std::vector<std::uint64_t> words_;
};

}  // namespace cim::eda
