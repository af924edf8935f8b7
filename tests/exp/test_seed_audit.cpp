/// \file test_seed_audit.cpp
/// \brief Collision audit of the campaign RNG key space.
///
/// Every Monte-Carlo trial derives its generator from
/// trial_seed(seed, cell, rep) == Rng::stream_seed2(seed, cell, rep). A
/// collision between two (cell, rep) keys silently correlates two trials
/// that every statistic downstream assumes independent, so the audit walks
/// a campaign-shaped key space (wide rep ranges, many cells, several
/// master seeds) and requires all seeds distinct — plus structural
/// separation from the single-index stream_seed family, which the
/// rng.hpp NESTED SPLITTING note says must never alias.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exp/campaign.hpp"
#include "util/rng.hpp"

namespace {

using cim::util::Rng;

std::size_t count_collisions(std::vector<std::uint64_t>& seeds) {
  std::sort(seeds.begin(), seeds.end());
  std::size_t dup = 0;
  for (std::size_t i = 1; i < seeds.size(); ++i)
    if (seeds[i] == seeds[i - 1]) ++dup;
  return dup;
}

TEST(SeedAudit, CampaignKeySpaceIsCollisionFree) {
  // 64 cells x 4096 reps x 3 master seeds = 786432 derived seeds. A single
  // collision correlates two trials; with a sound 64-bit mix the expected
  // number here is ~2^-25.
  std::vector<std::uint64_t> seeds;
  seeds.reserve(64 * 4096 * 3);
  for (const std::uint64_t master : {1ULL, 97ULL, 0xdeadbeefULL})
    for (std::uint64_t cell = 0; cell < 64; ++cell)
      for (std::uint64_t rep = 0; rep < 4096; ++rep)
        seeds.push_back(cim::exp::trial_seed(master, cell, rep));
  EXPECT_EQ(count_collisions(seeds), 0u);
}

TEST(SeedAudit, TwoIndexSplitIsNotTheNestedSingleSplit) {
  // The failure mode documented in rng.hpp: chaining stream_seed through
  // itself reuses one mixing family for both levels. stream_seed2 must be
  // a distinct family — not equal to the nested composition, and not equal
  // to the single-index split even at hi == 0.
  std::size_t nested_hits = 0, single_hits = 0;
  for (std::uint64_t s = 1; s <= 8; ++s)
    for (std::uint64_t hi = 0; hi < 16; ++hi)
      for (std::uint64_t lo = 0; lo < 16; ++lo) {
        const std::uint64_t two = Rng::stream_seed2(s, hi, lo);
        if (two == Rng::stream_seed(Rng::stream_seed(s, hi), lo))
          ++nested_hits;
        if (two == Rng::stream_seed(s, lo)) ++single_hits;
      }
  EXPECT_EQ(nested_hits, 0u);
  EXPECT_EQ(single_hits, 0u);
}

TEST(SeedAudit, MixedFamiliesDoNotAliasInOneExperiment) {
  // An experiment may use stream_seed for subsystem streams and
  // stream_seed2 for the trial grid off the SAME master seed; the combined
  // key space must still be collision-free.
  const std::uint64_t master = 42;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i)
    seeds.push_back(Rng::stream_seed(master, i));
  for (std::uint64_t cell = 0; cell < 64; ++cell)
    for (std::uint64_t rep = 0; rep < 64; ++rep)
      seeds.push_back(Rng::stream_seed2(master, cell, rep));
  EXPECT_EQ(count_collisions(seeds), 0u);
}

TEST(SeedAudit, DerivedStreamsLookIndependent) {
  // Adjacent keys must not produce correlated low-order behavior: check
  // the first draw of neighboring streams spreads over [0,1) instead of
  // clustering (a weak but cheap independence smoke test).
  cim::obs::StreamStat s;
  for (std::uint64_t rep = 0; rep < 2048; ++rep) {
    Rng r(Rng::stream_seed2(123, 5, rep));
    s.add(r.uniform());
  }
  EXPECT_NEAR(s.mean, 0.5, 0.02);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
  EXPECT_LT(s.min, 0.01);
  EXPECT_GT(s.max, 0.99);
}

}  // namespace
