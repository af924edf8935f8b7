#include "eda/truth_table.hpp"

#include <bit>
#include <stdexcept>

#include "eda/bit_slice.hpp"

namespace cim::eda {

TruthTable::TruthTable(int vars) : vars_(vars) {
  if (vars < 0 || vars > 16)
    throw std::invalid_argument("TruthTable: vars in [0,16]");
  const std::uint64_t bits = 1ULL << vars;
  words_.assign((bits + 63) / 64, 0);
}

TruthTable TruthTable::var(int i, int vars) {
  if (i < 0 || i >= vars) throw std::invalid_argument("TruthTable::var: bad index");
  TruthTable t(vars);
  for (std::size_t k = 0; k < t.words_.size(); ++k)
    t.words_[k] = detail::var_word(static_cast<std::size_t>(i), k);
  t.mask_tail();
  return t;
}

TruthTable TruthTable::constant(bool value, int vars) {
  TruthTable t(vars);
  if (value)
    for (auto& w : t.words_) w = ~0ULL;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_binary_string(const std::string& bits) {
  // Size must be a power of two.
  const std::uint64_t n = bits.size();
  if (n == 0 || (n & (n - 1)) != 0)
    throw std::invalid_argument("from_binary_string: size must be 2^k");
  int vars = 0;
  while ((1ULL << vars) < n) ++vars;
  TruthTable t(vars);
  for (std::uint64_t i = 0; i < n; ++i) {
    const char ch = bits[n - 1 - i];  // MSB first = highest minterm first
    if (ch != '0' && ch != '1')
      throw std::invalid_argument("from_binary_string: non-binary char");
    t.set(i, ch == '1');
  }
  return t;
}

bool TruthTable::get(std::uint64_t minterm) const {
  if (minterm >= size()) throw std::out_of_range("TruthTable::get");
  return (words_[minterm / 64] >> (minterm % 64)) & 1ULL;
}

void TruthTable::set(std::uint64_t minterm, bool value) {
  if (minterm >= size()) throw std::out_of_range("TruthTable::set");
  const std::uint64_t mask = 1ULL << (minterm % 64);
  if (value)
    words_[minterm / 64] |= mask;
  else
    words_[minterm / 64] &= ~mask;
}

void TruthTable::check_compat(const TruthTable& other) const {
  if (vars_ != other.vars_)
    throw std::invalid_argument("TruthTable: variable count mismatch");
}

void TruthTable::mask_tail() {
  if (vars_ < 6) words_[0] &= (1ULL << (1ULL << vars_)) - 1;
}

TruthTable TruthTable::operator&(const TruthTable& other) const {
  check_compat(other);
  TruthTable t(vars_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    t.words_[w] = words_[w] & other.words_[w];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& other) const {
  check_compat(other);
  TruthTable t(vars_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    t.words_[w] = words_[w] | other.words_[w];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& other) const {
  check_compat(other);
  TruthTable t(vars_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    t.words_[w] = words_[w] ^ other.words_[w];
  return t;
}

TruthTable TruthTable::operator~() const {
  TruthTable t(vars_);
  for (std::size_t w = 0; w < words_.size(); ++w) t.words_[w] = ~words_[w];
  t.mask_tail();
  return t;
}

bool TruthTable::operator==(const TruthTable& other) const {
  return vars_ == other.vars_ && words_ == other.words_;
}

TruthTable TruthTable::maj(const TruthTable& a, const TruthTable& b,
                           const TruthTable& c) {
  a.check_compat(b);
  a.check_compat(c);
  TruthTable t(a.vars_);
  for (std::size_t w = 0; w < t.words_.size(); ++w) {
    const std::uint64_t x = a.words_[w];
    const std::uint64_t y = b.words_[w];
    const std::uint64_t z = c.words_[w];
    t.words_[w] = (x & y) | (x & z) | (y & z);
  }
  return t;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  if (var < 0 || var >= vars_)
    throw std::invalid_argument("TruthTable::cofactor: bad variable");
  TruthTable t(vars_);
  const std::uint64_t stride = 1ULL << var;
  for (std::uint64_t m = 0; m < size(); ++m) {
    const bool bit_set = (m >> var) & 1ULL;
    std::uint64_t source = m;
    if (bit_set != value) source = value ? m + stride : m - stride;
    t.set(m, get(source));
  }
  return t;
}

bool TruthTable::depends_on(int var) const {
  return !(cofactor(var, false) == cofactor(var, true));
}

bool TruthTable::is_constant() const {
  const auto ones = count_ones();
  return ones == 0 || ones == size();
}

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t n = 0;
  for (const auto w : words_) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

std::string TruthTable::to_binary_string() const {
  std::string s(size(), '0');
  for (std::uint64_t i = 0; i < size(); ++i)
    if (get(i)) s[size() - 1 - i] = '1';
  return s;
}

}  // namespace cim::eda
