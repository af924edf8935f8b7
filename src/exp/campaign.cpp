#include "exp/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::exp {

namespace {

std::string cell_label(const CampaignConfig& cfg, std::size_t c) {
  if (c < cfg.cell_names.size() && !cfg.cell_names[c].empty())
    return cfg.cell_names[c];
  return "cell" + std::to_string(c);
}

/// The unit of scheduling and merging: a contiguous rep range of one cell.
struct Block {
  std::size_t cell = 0;
  std::uint64_t rep_begin = 0;
  std::uint64_t rep_count = 0;
};

/// Canonical block evaluation: sequential Welford adds in rep order, each
/// trial seeded purely from (seed, cell, rep). The serial loop and every
/// thread of the pool run a block through this function, which is what
/// makes a pooled run bit-identical to a serial one.
obs::StreamStat run_block(const TrialFn& trial, std::uint64_t seed,
                          const Block& b) {
  obs::StreamStat st;
  for (std::uint64_t r = 0; r < b.rep_count; ++r) {
    const std::uint64_t rep = b.rep_begin + r;
    util::Rng rng(trial_seed(seed, b.cell, rep));
    st.add(trial(b.cell, rep, rng));
  }
  return st;
}

double cell_target(const CampaignConfig& cfg, const obs::StreamStat& s) {
  return std::max(cfg.ci_target, cfg.ci_rel_target * std::fabs(s.mean));
}

/// Sticky freeze: once a cell stops receiving trials its stats never
/// change, so a frozen cell stays frozen and the pass is deterministic.
void freeze_pass(const CampaignConfig& cfg, double z,
                 std::vector<CellCheckpoint>& st) {
  const std::uint64_t fixed =
      cfg.fixed_trials > 0 ? cfg.fixed_trials : cfg.max_trials;
  for (CellCheckpoint& c : st) {
    if (c.frozen) continue;
    const std::uint64_t n = c.stat.n;
    if (!cfg.adaptive) {
      if (n >= fixed) c.frozen = true;
      continue;
    }
    const double target = cell_target(cfg, c.stat);
    if (n >= cfg.min_trials && target > 0.0 &&
        c.stat.ci_half_width(z) <= target) {
      c.frozen = true;
    } else if (n >= cfg.max_trials) {
      c.frozen = true;
      c.capped = true;
    }
  }
}

/// How many more trials this cell wants, before per-round clamping. Pure
/// function of the merged summary (and the config), so the allocation —
/// and therefore the whole campaign — replays identically after a resume.
std::uint64_t desired_new(const CampaignConfig& cfg, double z,
                          const CellCheckpoint& c) {
  const std::uint64_t n = c.stat.n;
  if (!cfg.adaptive) {
    const std::uint64_t fixed =
        cfg.fixed_trials > 0 ? cfg.fixed_trials : cfg.max_trials;
    return n < fixed ? fixed - n : 0;
  }
  if (n >= cfg.max_trials) return 0;
  std::uint64_t needed = n < cfg.min_trials ? cfg.min_trials - n : 0;
  const double target = cell_target(cfg, c.stat);
  const double sd = c.stat.stddev();
  if (n >= 2 && target > 0.0 && sd > 0.0) {
    // Sample size for ci_half <= target under the normal approximation:
    // n_req = (z * sd / target)^2, using the current variance estimate.
    const double zs = z * sd / target;
    const double req = std::ceil(zs * zs);
    const std::uint64_t n_req =
        req >= static_cast<double>(cfg.max_trials)
            ? cfg.max_trials
            : static_cast<std::uint64_t>(req);
    needed = std::max(needed, n_req > n ? n_req - n : cfg.block);
  } else if (needed == 0) {
    needed = cfg.block;  // no usable variance estimate yet: probe one block
  }
  return std::min(needed, cfg.max_trials - n);
}

/// Emits this round's task list (block granularity, cell-index order) and
/// advances the replication cursors. High-variance cells get up to
/// `max_blocks_per_round` blocks; nearly-converged cells get one.
std::vector<Block> schedule_round(const CampaignConfig& cfg, double z,
                                  std::vector<CellCheckpoint>& st,
                                  std::uint64_t round,
                                  std::vector<Decision>& decisions) {
  std::vector<Block> tasks;
  const std::uint64_t cap =
      !cfg.adaptive && cfg.fixed_trials > 0 ? cfg.fixed_trials
                                            : cfg.max_trials;
  for (std::size_t c = 0; c < st.size(); ++c) {
    CellCheckpoint& cell = st[c];
    if (cell.frozen) continue;
    const std::uint64_t needed = desired_new(cfg, z, cell);
    if (needed == 0) continue;
    std::uint64_t blocks = (needed + cfg.block - 1) / cfg.block;
    blocks = std::min(std::max<std::uint64_t>(blocks, 1),
                      cfg.max_blocks_per_round);
    std::uint64_t alloc =
        std::min(blocks * cfg.block, cap - cell.stat.n);
    while (alloc > 0) {
      const std::uint64_t cnt = std::min(cfg.block, alloc);
      tasks.push_back({c, cell.cursor, cnt});
      decisions.push_back({round, c, cell.cursor, cnt});
      cell.cursor += cnt;
      alloc -= cnt;
    }
  }
  return tasks;
}

/// Writes the manifest of the campaign's state to `checkpoint_path`, or
/// throws: a campaign that cannot save its checkpoint must not run on as
/// if it had.
void save_checkpoint(const CampaignConfig& cfg, std::uint64_t fp,
                     const std::vector<CellCheckpoint>& st,
                     std::uint64_t rounds, std::uint64_t trials) {
  CampaignManifest m;
  m.name = cfg.name;
  m.seed = cfg.seed;
  m.cells = cfg.cells;
  m.block = cfg.block;
  m.fingerprint = fp;
  m.rounds = rounds;
  m.total_trials = trials;
  m.cell_state = st;
  if (!save_manifest(cfg.checkpoint_path, m))
    throw std::runtime_error("campaign '" + cfg.name +
                             "': cannot write checkpoint '" +
                             cfg.checkpoint_path + "'");
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t seed, std::size_t cell,
                         std::uint64_t rep) {
  return util::Rng::stream_seed2(seed, cell, rep);
}

CampaignConfig apply_env(CampaignConfig cfg) {
  // A zero count or target keeps the default too.
  const auto u64 = [](const char* name) {
    return obs::record::env_u64(name, std::getenv(name)).value_or(0);
  };
  if (const auto v = u64("CIM_EXP_MAX_TRIALS")) cfg.max_trials = v;
  if (const auto v = u64("CIM_EXP_CHECKPOINT_EVERY"))
    cfg.checkpoint_every_rounds = v;
  if (const auto v = obs::record::env_f64("CIM_EXP_CI_TARGET",
                                          std::getenv("CIM_EXP_CI_TARGET"));
      v && *v > 0.0)
    cfg.ci_target = *v;
  if (const char* e = std::getenv("CIM_EXP_CHECKPOINT");
      e != nullptr && *e != '\0')
    cfg.checkpoint_path = e;
  if (const char* e = std::getenv("CIM_EXP_CONV_FILE");
      e != nullptr && *e != '\0')
    cfg.convergence_csv = e;
  if (const auto v = obs::record::env_switch("CIM_EXP_PROGRESS",
                                             std::getenv("CIM_EXP_PROGRESS")))
    cfg.progress = *v;
  return cfg;
}

CampaignResult run_campaign(const CampaignConfig& cfg_in,
                            const TrialFn& trial) {
  CampaignConfig cfg = cfg_in;
  if (cfg.cells == 0) throw std::invalid_argument("campaign: cells == 0");
  if (cfg.block == 0) throw std::invalid_argument("campaign: block == 0");
  if (cfg.name.empty() ||
      cfg.name.find_first_of(" \t\r\n") != std::string::npos)
    throw std::invalid_argument(
        "campaign: name must be non-empty without whitespace");
  if (cfg.max_trials == 0) cfg.max_trials = 1;
  if (cfg.min_trials < 2) cfg.min_trials = 2;
  if (cfg.min_trials > cfg.max_trials) cfg.min_trials = cfg.max_trials;
  if (cfg.max_blocks_per_round == 0) cfg.max_blocks_per_round = 1;
  if (cfg.checkpoint_every_rounds == 0) cfg.checkpoint_every_rounds = 1;

  const std::uint64_t fp =
      campaign_fingerprint(cfg.name, cfg.seed, cfg.cells, cfg.block);

  const double z = obs::z_for_confidence(cfg.ci_confidence);
  CampaignResult res;
  std::vector<CellCheckpoint> st(cfg.cells);

  if (!cfg.checkpoint_path.empty() &&
      std::filesystem::exists(cfg.checkpoint_path)) {
    CampaignManifest m;
    std::string err;
    if (!load_manifest(cfg.checkpoint_path, m, &err))
      throw std::runtime_error("campaign '" + cfg.name +
                               "': cannot resume from '" +
                               cfg.checkpoint_path + "': " + err);
    if (m.fingerprint != fp)
      throw std::runtime_error(
          "campaign '" + cfg.name + "': checkpoint '" + cfg.checkpoint_path +
          "' belongs to a different campaign (fingerprint mismatch)");
    st = m.cell_state;
    res.rounds = m.rounds;
    res.total_trials = m.total_trials;
    res.resumed = true;
  }

  obs::Registry& reg = obs::Registry::global();
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t trials_at_start = res.total_trials;
  std::vector<std::string> conv_rows;

  for (;;) {
    freeze_pass(cfg, z, st);
    std::size_t frozen = 0;
    for (const CellCheckpoint& c : st) frozen += c.frozen ? 1 : 0;
    reg.gauge("exp.cells_frozen").set(static_cast<double>(frozen));
    reg.gauge("exp.cells_total").set(static_cast<double>(cfg.cells));
    if (frozen == cfg.cells) break;

    const std::uint64_t round = res.rounds;
    const std::vector<Block> tasks =
        schedule_round(cfg, z, st, round, res.decisions);
    if (tasks.empty()) break;  // unschedulable: freeze_pass will cap next

    std::vector<obs::StreamStat> results(tasks.size());
    const auto compute = [&](std::size_t i) {
      results[i] = run_block(trial, cfg.seed, tasks[i]);
    };
    if (cfg.pool != nullptr)
      cfg.pool->parallel_for(0, tasks.size(), compute);
    else
      for (std::size_t i = 0; i < tasks.size(); ++i) compute(i);

    // Merge in task-enumeration order: the determinism linchpin.
    std::uint64_t round_trials = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      st[tasks[i].cell].stat.merge(results[i]);
      round_trials += tasks[i].rep_count;
    }
    res.total_trials += round_trials;
    res.rounds += 1;

    reg.counter("exp.trials_done").add(round_trials);
    reg.counter("exp.rounds").add(1);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double rate =
        elapsed_s > 0.0
            ? static_cast<double>(res.total_trials - trials_at_start) /
                  elapsed_s
            : 0.0;
    std::uint64_t remaining = 0;
    for (const CellCheckpoint& c : st)
      if (!c.frozen) remaining += desired_new(cfg, z, c);
    reg.gauge("exp.trials_per_s").set(rate);
    reg.gauge("exp.eta_s")
        .set(rate > 0.0 ? static_cast<double>(remaining) / rate : 0.0);

    for (std::size_t c = 0; c < st.size(); ++c) {
      const std::string label = cell_label(cfg, c);
      const double ci = st[c].stat.ci_half_width(z);
      reg.gauge("exp.cell.trials." + label)
          .set(static_cast<double>(st[c].stat.n));
      reg.gauge("exp.cell.ci_half." + label).set(ci);
      char row[256];
      std::snprintf(row, sizeof(row), "%llu,%zu,%s,%llu,%.17g,%.17g,%d\n",
                    static_cast<unsigned long long>(round), c, label.c_str(),
                    static_cast<unsigned long long>(st[c].stat.n),
                    st[c].stat.mean, ci, st[c].frozen ? 1 : 0);
      conv_rows.emplace_back(row);
    }

    if (cfg.progress)
      std::fprintf(stderr,
                   "\r[exp] %s round %llu trials=%llu frozen=%zu/%zu "
                   "rate=%.0f/s eta=%.1fs   ",
                   cfg.name.c_str(),
                   static_cast<unsigned long long>(res.rounds),
                   static_cast<unsigned long long>(res.total_trials), frozen,
                   cfg.cells, rate,
                   rate > 0.0 ? static_cast<double>(remaining) / rate : 0.0);

    if (!cfg.checkpoint_path.empty() &&
        res.rounds % cfg.checkpoint_every_rounds == 0)
      save_checkpoint(cfg, fp, st, res.rounds, res.total_trials);
  }

  if (cfg.progress) std::fputc('\n', stderr);

  // Final manifest doubles as the result export for tools/cim_campaign.
  if (!cfg.checkpoint_path.empty())
    save_checkpoint(cfg, fp, st, res.rounds, res.total_trials);

  if (!cfg.convergence_csv.empty() &&
      !obs::write_file_atomic(cfg.convergence_csv, [&](std::ostream& os) {
        os << "round,cell,name,n,mean,ci_half,frozen\n";
        for (const std::string& row : conv_rows) os << row;
      }))
    throw std::runtime_error("campaign '" + cfg.name +
                             "': cannot write convergence CSV '" +
                             cfg.convergence_csv + "'");

  res.cells.reserve(cfg.cells);
  for (std::size_t c = 0; c < st.size(); ++c) {
    CellResult r;
    r.name = cell_label(cfg, c);
    r.stat = st[c].stat;
    r.frozen = st[c].frozen;
    r.capped = st[c].capped;
    res.cells.push_back(std::move(r));
  }
  return res;
}

}  // namespace cim::exp
