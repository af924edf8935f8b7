/// \file checkpoint.hpp
/// \brief `cim-campaign-v1` manifests: crash-safe campaign checkpoints and
///        the final result export read by tools/cim_campaign.
///
/// A manifest records everything needed to resume a Monte-Carlo campaign
/// exactly: the campaign identity (name/seed/cells/block, condensed into an
/// FNV-1a fingerprint so a checkpoint can never be resumed against a
/// different experiment), the scheduler's progress (rounds, total trials),
/// and per cell the merged `obs::StreamStat` plus the replication cursor —
/// the next rep index the scheduler may hand out. Because every trial is a
/// pure function of (seed, cell, rep) and every scheduler decision is a
/// pure function of the merged summaries, a run resumed from a round
/// boundary converges on a final manifest bit-identical to the
/// uninterrupted run (tests/exp/test_crash_resume.cpp SIGKILLs campaigns
/// mid-flight to prove it).
///
/// Lines, numbers and errors follow the record codec (obs/record.hpp):
/// doubles at %.17g so dump -> parse -> dump is a fixpoint, flags are 0 or
/// 1, and atomic writes via obs::write_file_atomic so readers only ever
/// see a complete file.
///
///   cim-campaign-v1
///   campaign <name> seed <u64> cells <n> block <u64> fingerprint <hex16>
///   state rounds <u64> trials <u64>
///   cell <i> count <u64> mean <g> m2 <g> min <g> max <g> cursor <u64>
///        frozen <0|1> capped <0|1>   (one line per cell)
///   end
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/dataset.hpp"

namespace cim::exp {

/// Per-cell resumable state: merged trial summary, the next replication
/// index to schedule, and the scheduler's terminal flags.
struct CellCheckpoint {
  obs::StreamStat stat;
  std::uint64_t cursor = 0;  ///< next rep index this cell may be assigned
  bool frozen = false;       ///< scheduler stopped assigning trials
  bool capped = false;       ///< frozen by hitting max_trials, CI target unmet
};

/// Complete `cim-campaign-v1` document.
struct CampaignManifest {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t cells = 0;
  std::uint64_t block = 0;
  std::uint64_t fingerprint = 0;  ///< campaign_fingerprint() of the above
  std::uint64_t rounds = 0;
  std::uint64_t total_trials = 0;
  std::vector<CellCheckpoint> cell_state;  ///< exactly `cells` entries
};

/// FNV-1a over "name|seed|cells|block" — the identity a checkpoint is
/// bound to. Scheduler knobs (CI targets, trial budgets, thread counts) are
/// deliberately excluded: they change how fast a campaign converges, never
/// what any (cell, rep) trial computes, so resuming across them is sound.
std::uint64_t campaign_fingerprint(std::string_view name, std::uint64_t seed,
                                   std::size_t cells, std::uint64_t block);

/// Serializes `m` in the format above (doubles at %.17g).
void dump_manifest(std::ostream& os, const CampaignManifest& m);
std::string manifest_to_string(const CampaignManifest& m);

/// Parses a manifest; throws obs::record::ParseError (a std::runtime_error)
/// naming the line on malformed input (bad magic, missing sections, cell-count
/// mismatch, out-of-order cell indices, fingerprint/identity mismatch).
CampaignManifest parse_manifest(std::string_view text);

/// Atomic (tmp + rename) write of `m` to `path`; false on I/O failure.
bool save_manifest(const std::string& path, const CampaignManifest& m);

/// Reads and parses `path`. Returns false with `*error` filled when the
/// file is missing, unreadable, or malformed.
bool load_manifest(const std::string& path, CampaignManifest& out,
                   std::string* error = nullptr);

}  // namespace cim::exp
