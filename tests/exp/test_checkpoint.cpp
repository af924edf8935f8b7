/// \file test_checkpoint.cpp
/// \brief cim-campaign-v1 manifests: dump -> parse -> dump fixpoint on
///        awkward doubles, fingerprint sensitivity, strict parse rejection,
///        and the atomic save / load round-trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exp/checkpoint.hpp"

namespace {

using cim::exp::campaign_fingerprint;
using cim::exp::CampaignManifest;
using cim::exp::CellCheckpoint;
using cim::exp::load_manifest;
using cim::exp::manifest_to_string;
using cim::exp::parse_manifest;
using cim::exp::save_manifest;

CampaignManifest demo_manifest() {
  CampaignManifest m;
  m.name = "demo";
  m.seed = 42;
  m.cells = 3;
  m.block = 8;
  m.fingerprint = campaign_fingerprint(m.name, m.seed, m.cells, m.block);
  m.rounds = 5;
  m.total_trials = 96;
  m.cell_state.resize(3);
  // Deliberately awkward doubles: non-terminating binary fractions,
  // denormal-adjacent magnitudes, negatives — %.17g must round-trip all
  // of them bit-exactly.
  m.cell_state[0].stat = {32, 0.1, 1.0 / 3.0, -2.7182818284590452,
                          3.141592653589793};
  m.cell_state[0].cursor = 32;
  m.cell_state[0].frozen = true;
  m.cell_state[1].stat = {40, -1e-17, 4.9406564584124654e-300, -1e300, 1e300};
  m.cell_state[1].cursor = 48;
  m.cell_state[2].stat = {24, 123456.789, 0.0, 123456.789, 123456.789};
  m.cell_state[2].cursor = 24;
  m.cell_state[2].frozen = true;
  m.cell_state[2].capped = true;
  return m;
}

void expect_manifest_eq(const CampaignManifest& a, const CampaignManifest& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_trials, b.total_trials);
  ASSERT_EQ(a.cell_state.size(), b.cell_state.size());
  for (std::size_t i = 0; i < a.cell_state.size(); ++i) {
    EXPECT_EQ(a.cell_state[i].stat.n, b.cell_state[i].stat.n);
    EXPECT_EQ(a.cell_state[i].stat.mean, b.cell_state[i].stat.mean);  // bitwise
    EXPECT_EQ(a.cell_state[i].stat.m2, b.cell_state[i].stat.m2);
    EXPECT_EQ(a.cell_state[i].stat.min, b.cell_state[i].stat.min);
    EXPECT_EQ(a.cell_state[i].stat.max, b.cell_state[i].stat.max);
    EXPECT_EQ(a.cell_state[i].cursor, b.cell_state[i].cursor);
    EXPECT_EQ(a.cell_state[i].frozen, b.cell_state[i].frozen);
    EXPECT_EQ(a.cell_state[i].capped, b.cell_state[i].capped);
  }
}

TEST(Checkpoint, DumpParseDumpIsFixpoint) {
  const CampaignManifest m = demo_manifest();
  const std::string once = manifest_to_string(m);
  const CampaignManifest parsed = parse_manifest(once);
  expect_manifest_eq(parsed, m);
  EXPECT_EQ(manifest_to_string(parsed), once);
}

TEST(Checkpoint, FingerprintDependsOnEveryIdentityField) {
  const std::uint64_t base = campaign_fingerprint("demo", 42, 3, 8);
  EXPECT_EQ(base, campaign_fingerprint("demo", 42, 3, 8));  // stable
  EXPECT_NE(base, campaign_fingerprint("demo2", 42, 3, 8));
  EXPECT_NE(base, campaign_fingerprint("demo", 43, 3, 8));
  EXPECT_NE(base, campaign_fingerprint("demo", 42, 4, 8));
  EXPECT_NE(base, campaign_fingerprint("demo", 42, 3, 9));
  // The separator is part of the identity: "ab"+"c" vs "a"+"bc" style
  // ambiguity must not collide.
  EXPECT_NE(campaign_fingerprint("ab1", 1, 1, 1),
            campaign_fingerprint("ab", 11, 1, 1));
}

TEST(Checkpoint, ParseRejectsMalformedInput) {
  const std::string good = manifest_to_string(demo_manifest());

  EXPECT_THROW(parse_manifest(""), std::runtime_error);
  EXPECT_THROW(parse_manifest("not-a-manifest\n"), std::runtime_error);
  // Wrong magic on line 1.
  EXPECT_THROW(parse_manifest("cim-campaign-v2\n" + good.substr(16)),
               std::runtime_error);
  // Truncated: drop the trailing "end" record.
  EXPECT_THROW(parse_manifest(good.substr(0, good.rfind("end"))),
               std::runtime_error);
  // Cell-count mismatch: drop one cell line.
  {
    std::string s = good;
    const auto p = s.find("cell 2 ");
    s.erase(p, s.find('\n', p) - p + 1);
    EXPECT_THROW(parse_manifest(s), std::runtime_error);
  }
  // Out-of-order cell indices.
  {
    std::string s = good;
    const auto p1 = s.find("cell 1 ");
    s.replace(p1 + 5, 1, "2");
    EXPECT_THROW(parse_manifest(s), std::runtime_error);
  }
  // Fingerprint inconsistent with the identity line.
  {
    std::string s = good;
    const auto p = s.find("fingerprint ");
    s.replace(p + 12, 1, s[p + 12] == '0' ? "1" : "0");
    EXPECT_THROW(parse_manifest(s), std::runtime_error);
  }
  // Garbage numeric field.
  {
    std::string s = good;
    const auto p = s.find("rounds ");
    s.replace(p + 7, 1, "x");
    EXPECT_THROW(parse_manifest(s), std::runtime_error);
  }
  // cursor < count is impossible state.
  {
    std::string s = good;
    const auto p = s.find("cursor 48");
    s.replace(p, 9, "cursor 7");
    EXPECT_THROW(parse_manifest(s), std::runtime_error);
  }
  // Negative, out-of-range flag and overflowing fields: strtoull used to
  // wrap "-1" to 2^64 - 1, and a flag of 7 re-dumped as 1.
  const std::vector<std::vector<std::pair<std::string, std::string>>> edits = {
      {{"rounds 5", "rounds -1"}},
      {{"trials 96", "trials -1"}},
      {{"count 32", "count -1"}, {"cursor 32", "cursor -1"}},
      {{"cursor 48", "cursor -1"}},
      {{"capped 1", "capped 7"}},
      {{"seed 42", "seed 18446744073709551616"}},
  };
  for (const auto& row : edits) {
    std::string s = good;
    for (const auto& [from, to] : row) {
      const auto p = s.find(from);
      ASSERT_NE(p, std::string::npos) << from;
      s.replace(p, from.size(), to);
    }
    EXPECT_THROW(parse_manifest(s), std::runtime_error) << row[0].second;
  }
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cim_test_ckpt.cimcampaign")
          .string();
  const CampaignManifest m = demo_manifest();
  ASSERT_TRUE(save_manifest(path, m));

  CampaignManifest back;
  std::string err;
  ASSERT_TRUE(load_manifest(path, back, &err)) << err;
  expect_manifest_eq(back, m);

  // No stray temp file left behind by the atomic write.
  EXPECT_FALSE(
      std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(Checkpoint, LoadReportsMissingAndMalformedFiles) {
  CampaignManifest m;
  std::string err;
  EXPECT_FALSE(load_manifest("/nonexistent/dir/nope.cimcampaign", m, &err));
  EXPECT_FALSE(err.empty());

  const std::string path =
      (std::filesystem::temp_directory_path() / "cim_test_bad.cimcampaign")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage\n", f);
    std::fclose(f);
  }
  err.clear();
  EXPECT_FALSE(load_manifest(path, m, &err));
  EXPECT_FALSE(err.empty());
  std::filesystem::remove(path);
}

}  // namespace
