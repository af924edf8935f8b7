/// \file strash.hpp
/// \brief The one hash-consing table of the EDA flow: structural hashing in
///        Aig and Mig, and BddManager's unique and ITE tables.
///
/// An open-addressing set of 32-bit ids whose keys live outside it (for a
/// node graph, an id's key is the node's own fanins). A slot holds an id
/// and the high 32 bits of its key's hash; a probe compares those bits,
/// then the caller's `same(id)` decides equality on the full key, so no
/// two keys alias however wide their fields. Linear probing; the table
/// doubles before it is half full, rehashing from the stored bits alone.
#pragma once

#include <cstdint>
#include <vector>

namespace cim::eda::detail {

/// Mixes up to three key fields into 64 bits (the SplitMix64 finalizer
/// over each field in turn).
inline std::uint64_t strash_hash(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c = 0) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const std::uint64_t f : {a, b, c}) {
    h = (h ^ f) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    h ^= h >> 31;
  }
  return h;
}

class StrashTable {
 public:
  static constexpr std::uint32_t kAbsent = ~0u;

  /// The id stored under `hash` that `same(id)` accepts, or kAbsent.
  template <typename Same>
  std::uint32_t find(std::uint64_t hash, Same&& same) const {
    if (slots_.empty()) return kAbsent;
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t i = tag & mask();; i = (i + 1) & mask()) {
      if (slots_[i].id == kAbsent) return kAbsent;
      if (slots_[i].tag == tag && same(slots_[i].id)) return slots_[i].id;
    }
  }

  /// Stores `id` (not kAbsent) under `hash`, after a find that missed.
  void insert(std::uint64_t hash, std::uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place({id, static_cast<std::uint32_t>(hash >> 32)});
    ++size_;
  }

 private:
  struct Slot {
    std::uint32_t id = kAbsent;
    std::uint32_t tag = 0;
  };

  std::size_t mask() const { return slots_.size() - 1; }

  void place(Slot s) {
    std::size_t i = s.tag & mask();
    while (slots_[i].id != kAbsent) i = (i + 1) & mask();
    slots_[i] = s;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.id != kAbsent) place(s);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cim::eda::detail
