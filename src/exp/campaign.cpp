#include "exp/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "exp/worker.hpp"
#include "obs/record.hpp"

namespace cim::exp {

namespace {

std::string cell_label(const CampaignConfig& cfg, std::size_t c) {
  if (c < cfg.cell_names.size() && !cfg.cell_names[c].empty())
    return cfg.cell_names[c];
  return "cell" + std::to_string(c);
}

/// Canonical block evaluation: sequential Welford adds in rep order, each
/// trial seeded purely from (seed, cell, rep). Every execution path —
/// serial, thread pool, worker process — reduces to this function, which
/// is what makes the sharded results bit-identical.
obs::StreamStat run_block(const TrialFn& trial, std::uint64_t seed,
                          const WorkerTask& t) {
  obs::StreamStat st;
  for (std::uint64_t r = 0; r < t.rep_count; ++r) {
    const std::uint64_t rep = t.rep_begin + r;
    util::Rng rng(trial_seed(seed, t.cell, rep));
    st.add(trial(t.cell, rep, rng));
  }
  return st;
}

void run_many(util::ThreadPool* pool, std::size_t n,
              const std::function<void(std::size_t)>& body) {
  if (pool != nullptr)
    pool->parallel_for(0, n, body);
  else
    for (std::size_t i = 0; i < n; ++i) body(i);
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
std::vector<WorkerTask> schedule_round(const CampaignConfig& cfg, double z,
                                       std::vector<CellCheckpoint>& st,
                                       std::uint64_t round,
                                       std::vector<Decision>& decisions) {
  std::vector<WorkerTask> tasks;
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

/// Runs one round's tasks across the active shards and fills `results` by
/// task index. On any worker-pipe failure the parent recomputes the lost
/// shards in-process — bit-identical by construction — and demotes the
/// campaign to in-process execution for the remaining rounds.
void execute_tasks(const CampaignConfig& cfg, const TrialFn& trial,
                   const std::vector<WorkerTask>& tasks,
                   std::vector<obs::StreamStat>& results, WorkerPool& wpool,
                   bool& use_workers) {
  results.assign(tasks.size(), obs::StreamStat{});
  const auto compute = [&](std::size_t i) {
    results[i] = run_block(trial, cfg.seed, tasks[i]);
  };

  const std::size_t shards = use_workers ? wpool.children() + 1 : 1;
  if (shards <= 1) {
    run_many(cfg.pool, tasks.size(), compute);
    return;
  }

  std::vector<std::vector<WorkerTask>> child_tasks(shards - 1);
  std::vector<std::vector<std::size_t>> child_idx(shards - 1);
  std::vector<std::size_t> mine;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t shard = i % shards;
    if (shard == 0) {
      mine.push_back(i);
    } else {
      child_tasks[shard - 1].push_back(tasks[i]);
      child_idx[shard - 1].push_back(i);
    }
  }

  bool ok = true;
  for (std::size_t c = 0; c < child_tasks.size() && ok; ++c)
    ok = wpool.send_tasks(c, child_tasks[c]);

  // The parent is shard 0 and chews its own blocks while children work.
  run_many(cfg.pool, mine.size(),
           [&](std::size_t j) { compute(mine[j]); });

  if (ok) {
    for (std::size_t c = 0; c < child_tasks.size() && ok; ++c) {
      std::vector<obs::StreamStat> stats;
      ok = wpool.read_stats(c, child_tasks[c].size(), stats);
      if (ok)
        for (std::size_t j = 0; j < stats.size(); ++j)
          results[child_idx[c][j]] = stats[j];
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "[cim-exp] %s: worker pool failed mid-round; recomputing "
                 "in-process\n",
                 cfg.name.c_str());
    wpool.shutdown();
    use_workers = false;
    std::vector<std::size_t> lost;
    for (const auto& idx : child_idx)
      lost.insert(lost.end(), idx.begin(), idx.end());
    run_many(cfg.pool, lost.size(),
             [&](std::size_t j) { compute(lost[j]); });
  }
}

CampaignManifest make_manifest(const CampaignConfig& cfg, std::uint64_t fp,
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
  return m;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t seed, std::size_t cell,
                         std::uint64_t rep) {
  return util::Rng::stream_seed2(seed, cell, rep);
}

CampaignConfig apply_env(CampaignConfig cfg) {
  // A zero count or target keeps the default too. Workers are forked
  // processes, so their count is capped like CIM_THREADS.
  const auto u64 = [](const char* name,
                      std::uint64_t max = obs::record::kU64Max) {
    return obs::record::env_u64(name, std::getenv(name), max).value_or(0);
  };
  if (const auto v = u64("CIM_EXP_WORKERS", 1024)) cfg.workers = v;
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
  if (const char* e = std::getenv("CIM_EXP_PROGRESS"); e != nullptr) {
    const std::string_view v(e);
    cfg.progress = !(v == "0" || v == "off" || v == "");
  }
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
  if (cfg.workers == 0) cfg.workers = 1;

  const std::uint64_t fp =
      campaign_fingerprint(cfg.name, cfg.seed, cfg.cells, cfg.block);

  // A worker child turns into a protocol server at its first campaign and
  // never comes back; the fingerprint handshake rejects campaigns other
  // than the one its parent is running.
  if (in_worker_mode())
    serve_worker(fp, [&](const WorkerTask& t) {
      return run_block(trial, cfg.seed, t);
    });

  const double z = obs::z_for_confidence(cfg.ci_confidence);
  CampaignResult res;
  std::vector<CellCheckpoint> st(cfg.cells);

  if (!cfg.checkpoint_path.empty() &&
      std::filesystem::exists(cfg.checkpoint_path)) {
    CampaignManifest m;
    std::string err;
    if (!load_manifest(cfg.checkpoint_path, m, &err))
      throw std::runtime_error("campaign '" + cfg.name +
                               "': cannot resume: " + err);
    if (m.fingerprint != fp)
      throw std::runtime_error(
          "campaign '" + cfg.name + "': checkpoint '" + cfg.checkpoint_path +
          "' belongs to a different campaign (fingerprint mismatch)");
    st = m.cell_state;
    res.rounds = m.rounds;
    res.total_trials = m.total_trials;
    res.resumed = true;
  }

  WorkerPool wpool;
  bool use_workers = false;
  if (cfg.workers > 1) {
    if (wpool.start(cfg.workers - 1, fp)) {
      use_workers = true;
    } else {
      std::fprintf(stderr,
                   "[cim-exp] %s: could not start %zu worker processes; "
                   "running in-process\n",
                   cfg.name.c_str(), cfg.workers - 1);
    }
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
    std::vector<WorkerTask> tasks =
        schedule_round(cfg, z, st, round, res.decisions);
    if (tasks.empty()) break;  // unschedulable: freeze_pass will cap next

    std::vector<obs::StreamStat> results;
    execute_tasks(cfg, trial, tasks, results, wpool, use_workers);

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
      save_manifest(cfg.checkpoint_path,
                    make_manifest(cfg, fp, st, res.rounds, res.total_trials));
  }

  if (cfg.progress) std::fputc('\n', stderr);

  // Final manifest doubles as the result export for tools/cim_campaign.
  if (!cfg.checkpoint_path.empty())
    save_manifest(cfg.checkpoint_path,
                  make_manifest(cfg, fp, st, res.rounds, res.total_trials));

  if (!cfg.convergence_csv.empty())
    obs::write_file_atomic(cfg.convergence_csv, [&](std::ostream& os) {
      os << "round,cell,name,n,mean,ci_half,frozen\n";
      for (const std::string& row : conv_rows) os << row;
    });

  res.worker_shards = use_workers ? wpool.children() + 1 : 1;
  if (use_workers) {
    for (std::size_t c = 0; c < wpool.children(); ++c) {
      std::string json;
      obs::Snapshot snap;
      if (wpool.collect_snapshot(c, json) &&
          obs::parse_snapshot_json(json, snap)) {
        const obs::MergeStats ms = obs::absorb_snapshot(snap, 0);
        res.worker_telemetry.counters_added += ms.counters_added;
        res.worker_telemetry.gauges_taken += ms.gauges_taken;
        res.worker_telemetry.histograms_merged += ms.histograms_merged;
        res.worker_telemetry.bound_conflicts += ms.bound_conflicts;
        res.worker_telemetry.spans_merged += ms.spans_merged;
      }
    }
    wpool.end_campaign();
    wpool.shutdown();
  }

  res.cells.reserve(cfg.cells);
  for (std::size_t c = 0; c < st.size(); ++c) {
    CellResult r;
    r.name = cell_label(cfg, c);
    r.stat = st[c].stat;
    r.frozen = st[c].frozen;
    r.capped = st[c].capped;
    res.summary.absorb(r.name, r.stat);
    res.cells.push_back(std::move(r));
  }
  return res;
}

}  // namespace cim::exp
