/// \file campaign.hpp
/// \brief Adaptive Monte-Carlo campaign runner (cim::exp).
///
/// A *campaign* evaluates one scalar metric over `cells` parameter-grid
/// cells by repeated randomized trials. The runner shards trials across
/// the in-process thread pool AND across worker processes (worker.hpp),
/// with a hard determinism contract:
///
///   The final per-cell summaries are bit-identical to a serial run for
///   any thread count, worker count, and any checkpoint/kill/resume
///   history.
///
/// The contract holds because the unit of scheduling is a *replication
/// block* — a contiguous rep range of one cell. Each trial derives its RNG
/// purely from (campaign seed, cell, rep) via `trial_seed` (the two-index
/// counter split, Rng::stream_seed2); each block summary is built by
/// sequential Welford adds in rep order; and block summaries are merged in
/// task-enumeration order no matter where they were computed. The
/// scheduler itself runs single-threaded in the parent and every decision
/// it makes is a pure function of the merged summaries, so resuming from a
/// `cim-campaign-v1` checkpoint (written atomically at round boundaries)
/// replays the exact remaining schedule.
///
/// Adaptive stopping closes the loop on *streaming statistics*
/// (obs/dataset.hpp): after every round each live cell's confidence
/// interval is compared against its target; converged cells freeze, and
/// the next round's blocks go where the variance is — the highest-variance
/// cells receive up to `max_blocks_per_round` blocks while nearly-converged
/// cells get one. bench_campaign gates the resulting trial savings
/// (>= 30% fewer trials than a fixed-count design at equal-or-tighter CI).
///
/// The run is observable end-to-end: `exp.*` counters/gauges stream
/// through the usual snapshot/Prometheus exporters, `progress` draws a
/// stderr status line, `convergence_csv` logs per-round per-cell CI
/// half-widths, and the final checkpoint manifest doubles as the result
/// artifact consumed by tools/cim_campaign (status / merge / diff).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "obs/dataset.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cim::exp {

/// One randomized trial: returns the metric for `cell` at replication
/// `rep`, drawing all randomness from `rng`. Must be a pure function of
/// its arguments (it runs on arbitrary threads/processes).
using TrialFn =
    std::function<double(std::size_t cell, std::uint64_t rep, util::Rng& rng)>;

struct CampaignConfig {
  std::string name;        ///< manifest identity; no whitespace
  std::uint64_t seed = 1;  ///< master seed; trials derive from (seed,cell,rep)
  std::size_t cells = 0;   ///< parameter-grid size
  std::vector<std::string> cell_names;  ///< optional labels; default cell<i>

  std::uint64_t block = 8;  ///< replication block = scheduling/merge grain

  // Adaptive stopping (adaptive == true): run until every cell's CI
  // half-width <= max(ci_target, ci_rel_target * |mean|), bounded by
  // [min_trials, max_trials]. Cells that exhaust max_trials freeze
  // "capped". With both targets 0 every cell runs to max_trials.
  bool adaptive = true;
  std::uint64_t min_trials = 16;
  std::uint64_t max_trials = 4096;
  double ci_confidence = 0.95;
  double ci_target = 0.0;      ///< absolute CI half-width target
  double ci_rel_target = 0.0;  ///< relative (fraction of |mean|) target
  std::uint64_t max_blocks_per_round = 4;  ///< reinvestment cap per cell

  /// Fixed design (adaptive == false): exactly this many trials per cell
  /// (0 means max_trials). The baseline bench_campaign compares against.
  std::uint64_t fixed_trials = 0;

  // Sharding. `workers` counts TOTAL shards including the parent (1 = no
  /// child processes); `pool` parallelizes each shard's blocks (nullptr =
  /// serial). Neither affects results — see file comment.
  std::size_t workers = 1;
  util::ThreadPool* pool = nullptr;

  // Checkpoint/resume: when `checkpoint_path` is set the runner resumes
  // from it if present (fingerprint mismatch throws) and rewrites it every
  // `checkpoint_every_rounds` rounds plus once at the end — so the final
  // file is also the result export.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every_rounds = 1;

  bool progress = false;        ///< stderr status line per round
  std::string convergence_csv;  ///< per-round per-cell CI log (atomic write)
};

/// Final per-cell outcome.
struct CellResult {
  std::string name;
  obs::StreamStat stat;
  bool frozen = false;
  bool capped = false;  ///< hit max_trials with CI target unmet
};

/// One scheduling decision: block of `rep_count` reps handed out in
/// `round`. The full log replays the allocation history deterministically.
struct Decision {
  std::uint64_t round = 0;
  std::size_t cell = 0;
  std::uint64_t rep_begin = 0;
  std::uint64_t rep_count = 0;
};

struct CampaignResult {
  std::vector<CellResult> cells;
  std::uint64_t total_trials = 0;  ///< including trials restored on resume
  std::uint64_t rounds = 0;
  bool resumed = false;            ///< state was restored from a checkpoint
  std::size_t worker_shards = 1;   ///< shards actually used (1 on fallback)
  std::vector<Decision> decisions;  ///< this run's allocations (post-resume)
  obs::MergeStats worker_telemetry;  ///< from absorbing worker snapshots
};

/// RNG seed of one trial: Rng::stream_seed2(seed, cell, rep). Exposed so
/// tests can audit the campaign key space for collisions.
std::uint64_t trial_seed(std::uint64_t seed, std::size_t cell,
                         std::uint64_t rep);

/// Applies the CIM_EXP_* environment overrides to `cfg` (workers, CI
/// target, checkpoint path/cadence, max trials, progress, convergence
/// file). Benches call this so campaigns are steerable without a rebuild;
/// tests call run_campaign with explicit configs and stay env-immune.
CampaignConfig apply_env(CampaignConfig cfg);

/// Runs the campaign. In a worker process (in_worker_mode()) this never
/// returns — it serves the parent's protocol and exits. Throws
/// std::invalid_argument on a malformed config and std::runtime_error when
/// an existing checkpoint does not match the campaign identity.
CampaignResult run_campaign(const CampaignConfig& cfg, const TrialFn& trial);

}  // namespace cim::exp
