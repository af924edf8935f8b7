/// The hash-consing table (eda/strash.hpp) against std::unordered_map:
/// ids index a key array outside the table, as node ids index fanins.
#include "eda/strash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace cim::eda::detail {
namespace {

/// A table over a key array, and the map it must agree with.
struct Twin {
  std::vector<std::uint64_t> keys;  // id -> key
  StrashTable table;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;

  static std::uint64_t hash(std::uint64_t k) {
    return strash_hash(k & 0xffffffffu, k >> 32);
  }
  std::uint32_t find(std::uint64_t k, std::uint64_t h) const {
    return table.find(h, [&](std::uint32_t id) { return keys[id] == k; });
  }
  /// Looks `k` up in both; adds it to both on a miss.
  void find_or_add(std::uint64_t k, std::uint64_t h) {
    const auto it = ref.find(k);
    const std::uint32_t got = find(k, h);
    ASSERT_EQ(got, it == ref.end() ? StrashTable::kAbsent : it->second)
        << "key " << k;
    if (it != ref.end()) return;
    const auto id = static_cast<std::uint32_t>(keys.size());
    keys.push_back(k);
    table.insert(h, id);
    ref.emplace(k, id);
  }
};

TEST(StrashTable, MatchesUnorderedMapAcrossGrowths) {
  std::mt19937_64 rng(2024);
  Twin t;
  EXPECT_EQ(t.find(1, Twin::hash(1)), StrashTable::kAbsent);  // empty table
  for (int i = 0; i < 40000; ++i) {
    std::uint64_t k = rng();
    switch (i % 4) {
      case 0: break;                                  // random
      case 1: k = (k << 21) | 0x155555; break;        // shared low 21 bits
      case 2: k = (k << 42) | 0x2aaaaaaaaaaULL; break;  // shared low 42 bits
      case 3:  // a key seen before, or its neighbour in the top field
        if (!t.keys.empty())
          k = t.keys[rng() % t.keys.size()] ^ ((rng() & 1) << 63);
        break;
    }
    t.find_or_add(k, Twin::hash(k));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(t.ref.size(), 30000u);  // 16 slots grew past 2^16
  for (const auto& [k, id] : t.ref) ASSERT_EQ(t.find(k, Twin::hash(k)), id);
}

// Equality is decided on the full key: keys whose hashes agree in every
// bit still get ids of their own.
TEST(StrashTable, CollidingHashesStayDistinct) {
  Twin t;
  for (std::uint64_t k = 0; k < 200; ++k) t.find_or_add(k << 40, 0x1234);
  for (std::uint64_t k = 0; k < 200; ++k) t.find_or_add(k << 40, 0x1234);
  EXPECT_EQ(t.keys.size(), 200u);
  for (std::uint64_t k = 0; k < 200; ++k)
    EXPECT_EQ(t.find(k << 40, 0x1234), k);
  EXPECT_EQ(t.find(7, 0x1234), StrashTable::kAbsent);
}

}  // namespace
}  // namespace cim::eda::detail
