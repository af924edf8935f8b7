/// \file test_campaign.cpp
/// \brief Campaign runner: bit-identical results at any thread count,
///        adaptive freezing/capping/reinvestment semantics, fixed-count
///        mode, checkpoint resume, config validation, the exp.* telemetry
///        stream, and loud failure on unwritable files or a torn manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/campaign.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::exp::CampaignConfig;
using cim::exp::CampaignResult;
using cim::exp::run_campaign;
using cim::exp::TrialFn;

/// Heteroscedastic workload: cell c draws from N(c, (0.01 + 0.2*c)^2), so
/// cell 0 is nearly deterministic and later cells are noisy — the shape
/// adaptive stopping exists for.
TrialFn noisy_cells() {
  return [](std::size_t cell, std::uint64_t /*rep*/, cim::util::Rng& rng) {
    return rng.normal(static_cast<double>(cell),
                      0.01 + 0.2 * static_cast<double>(cell));
  };
}

CampaignConfig base_config(const char* name) {
  CampaignConfig cfg;
  cfg.name = name;
  cfg.seed = 7;
  cfg.cells = 4;
  cfg.block = 4;
  cfg.min_trials = 8;
  cfg.max_trials = 256;
  cfg.ci_target = 0.1;
  return cfg;
}

void expect_bitwise_equal(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.total_trials, b.total_trials);
  EXPECT_EQ(a.rounds, b.rounds);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].stat.n, b.cells[c].stat.n) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.mean, b.cells[c].stat.mean) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.m2, b.cells[c].stat.m2) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.min, b.cells[c].stat.min) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.max, b.cells[c].stat.max) << "cell " << c;
    EXPECT_EQ(a.cells[c].frozen, b.cells[c].frozen) << "cell " << c;
    EXPECT_EQ(a.cells[c].capped, b.cells[c].capped) << "cell " << c;
  }
}

TEST(Campaign, SerialAndThreadedRunsAreBitIdentical) {
  // Every trial bumps a registry counter, so telemetry counted inside
  // trials must total the campaign's trials on both paths.
  cim::obs::Counter& trials =
      cim::obs::Registry::global().counter("test.campaign_trials");
  const TrialFn inner = noisy_cells();
  const TrialFn counted = [&](std::size_t cell, std::uint64_t rep,
                              cim::util::Rng& rng) {
    trials.add(1);
    return inner(cell, rep, rng);
  };

  CampaignConfig serial = base_config("tc_threads");
  serial.pool = nullptr;
  trials.reset();
  const CampaignResult a = run_campaign(serial, counted);
  EXPECT_EQ(trials.value(), a.total_trials);

  CampaignConfig pooled = serial;
  pooled.pool = &cim::util::ThreadPool::global();
  trials.reset();
  const CampaignResult b = run_campaign(pooled, counted);
  EXPECT_EQ(trials.value(), b.total_trials);

  expect_bitwise_equal(a, b);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].round, b.decisions[i].round);
    EXPECT_EQ(a.decisions[i].cell, b.decisions[i].cell);
    EXPECT_EQ(a.decisions[i].rep_begin, b.decisions[i].rep_begin);
    EXPECT_EQ(a.decisions[i].rep_count, b.decisions[i].rep_count);
  }
}

TEST(Campaign, AdaptiveStoppingSpendsTrialsWhereTheVarianceIs) {
  const CampaignResult res =
      run_campaign(base_config("tc_adaptive"), noisy_cells());
  // Every cell converged (generous absolute target, plenty of budget).
  for (const auto& c : res.cells) {
    EXPECT_TRUE(c.frozen) << c.name;
    EXPECT_FALSE(c.capped) << c.name;
  }
  // The near-deterministic cell froze at the floor; the noisiest cell
  // needed strictly more replications.
  EXPECT_EQ(res.cells[0].stat.n, 8u);
  EXPECT_GT(res.cells[3].stat.n, res.cells[0].stat.n);
  EXPECT_GE(res.rounds, 2u);
  // Decision log covers exactly the executed trials.
  std::uint64_t decided = 0;
  for (const auto& d : res.decisions) decided += d.rep_count;
  EXPECT_EQ(decided, res.total_trials);
}

TEST(Campaign, CapsCellsThatExhaustTheBudget) {
  CampaignConfig cfg = base_config("tc_capped");
  cfg.max_trials = 16;
  cfg.ci_target = 1e-9;  // unreachable
  const CampaignResult res = run_campaign(cfg, noisy_cells());
  for (const auto& c : res.cells) {
    EXPECT_TRUE(c.frozen) << c.name;
    EXPECT_TRUE(c.capped) << c.name;
    EXPECT_EQ(c.stat.n, 16u) << c.name;
  }
}

TEST(Campaign, FixedModeRunsExactlyFixedTrials) {
  CampaignConfig cfg = base_config("tc_fixed");
  cfg.adaptive = false;
  cfg.fixed_trials = 23;  // not a block multiple: last block is partial
  const CampaignResult res = run_campaign(cfg, noisy_cells());
  EXPECT_EQ(res.total_trials, 23u * cfg.cells);
  for (const auto& c : res.cells) {
    EXPECT_EQ(c.stat.n, 23u);
    EXPECT_TRUE(c.frozen);
    EXPECT_FALSE(c.capped);
  }
}

TEST(Campaign, TrialRngIsAPureFunctionOfSeedCellRep) {
  // Identical campaigns see identical per-trial randomness; a different
  // master seed changes it.
  EXPECT_EQ(cim::exp::trial_seed(7, 2, 11), cim::exp::trial_seed(7, 2, 11));
  EXPECT_NE(cim::exp::trial_seed(7, 2, 11), cim::exp::trial_seed(8, 2, 11));
  EXPECT_NE(cim::exp::trial_seed(7, 2, 11), cim::exp::trial_seed(7, 3, 11));
  EXPECT_NE(cim::exp::trial_seed(7, 2, 11), cim::exp::trial_seed(7, 2, 12));
}

TEST(Campaign, SummaryAndNamesMatchCells) {
  CampaignConfig cfg = base_config("tc_names");
  cfg.cell_names = {"alpha", "beta"};  // cells 2, 3 fall back to cell<i>
  const CampaignResult res = run_campaign(cfg, noisy_cells());
  ASSERT_EQ(res.cells.size(), 4u);
  EXPECT_EQ(res.cells[0].name, "alpha");
  EXPECT_EQ(res.cells[1].name, "beta");
  EXPECT_EQ(res.cells[2].name, "cell2");
  EXPECT_EQ(res.cells[3].name, "cell3");
}

TEST(Campaign, RejectsMalformedConfigs) {
  CampaignConfig cfg = base_config("tc_bad");
  cfg.cells = 0;
  EXPECT_THROW(run_campaign(cfg, noisy_cells()), std::invalid_argument);
  cfg = base_config("tc_bad");
  cfg.block = 0;
  EXPECT_THROW(run_campaign(cfg, noisy_cells()), std::invalid_argument);
  cfg = base_config("");
  EXPECT_THROW(run_campaign(cfg, noisy_cells()), std::invalid_argument);
  cfg = base_config("has space");
  EXPECT_THROW(run_campaign(cfg, noisy_cells()), std::invalid_argument);
}

TEST(Campaign, CheckpointResumeContinuesExactly) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tc_resume.cimcampaign")
          .string();
  std::filesystem::remove(path);

  // Reference: one uninterrupted run (no checkpointing involved).
  CampaignConfig ref_cfg = base_config("tc_resume");
  const CampaignResult ref = run_campaign(ref_cfg, noisy_cells());

  // Interrupted run: the trial function throws partway through round 2,
  // modeling a crash; the round-1 checkpoint survives on disk.
  CampaignConfig phase1 = ref_cfg;
  phase1.checkpoint_path = path;
  std::size_t calls = 0;
  const TrialFn inner = noisy_cells();
  const TrialFn flaky = [&](std::size_t cell, std::uint64_t rep,
                            cim::util::Rng& rng) {
    if (++calls > 40) throw std::runtime_error("injected crash");
    return inner(cell, rep, rng);
  };
  EXPECT_THROW(run_campaign(phase1, flaky), std::runtime_error);
  ASSERT_TRUE(std::filesystem::exists(path));

  // ...which the full-budget rerun resumes and finishes. Because every
  // scheduler decision is a pure function of the merged summaries, the
  // final state matches the uninterrupted run bit for bit.
  CampaignConfig phase2 = ref_cfg;
  phase2.checkpoint_path = path;
  const CampaignResult resumed = run_campaign(phase2, noisy_cells());
  EXPECT_TRUE(resumed.resumed);
  ASSERT_EQ(resumed.cells.size(), ref.cells.size());
  for (std::size_t c = 0; c < ref.cells.size(); ++c) {
    EXPECT_EQ(resumed.cells[c].stat.n, ref.cells[c].stat.n);
    EXPECT_EQ(resumed.cells[c].stat.mean, ref.cells[c].stat.mean);
    EXPECT_EQ(resumed.cells[c].stat.m2, ref.cells[c].stat.m2);
  }
  EXPECT_EQ(resumed.total_trials, ref.total_trials);

  // Resuming a finished campaign is a no-op restore.
  const CampaignResult again = run_campaign(phase2, noisy_cells());
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.total_trials, ref.total_trials);
  EXPECT_EQ(again.rounds, resumed.rounds);
  std::filesystem::remove(path);
}

TEST(Campaign, CheckpointFingerprintMismatchThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tc_mismatch.cimcampaign")
          .string();
  std::filesystem::remove(path);
  CampaignConfig cfg = base_config("tc_mismatch");
  cfg.checkpoint_path = path;
  (void)run_campaign(cfg, noisy_cells());
  ASSERT_TRUE(std::filesystem::exists(path));

  CampaignConfig other = cfg;
  other.seed = 999;  // different identity, same path
  EXPECT_THROW(run_campaign(other, noisy_cells()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Campaign, ConvergenceCsvAndTelemetryAreEmitted) {
  const std::string csv =
      (std::filesystem::temp_directory_path() / "tc_conv.csv").string();
  std::filesystem::remove(csv);

  cim::obs::Registry::global().reset();
  CampaignConfig cfg = base_config("tc_telemetry");
  cfg.convergence_csv = csv;
  const CampaignResult res = run_campaign(cfg, noisy_cells());

  const cim::obs::Snapshot snap = cim::obs::Registry::global().snapshot();
  std::uint64_t trials_done = 0, rounds = 0;
  bool saw_frozen_gauge = false, saw_cell_gauge = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "exp.trials_done") trials_done = v;
    if (name == "exp.rounds") rounds = v;
  }
  for (const auto& [name, v] : snap.gauges) {
    if (name == "exp.cells_frozen") saw_frozen_gauge = true;
    if (name.rfind("exp.cell.ci_half.", 0) == 0) saw_cell_gauge = true;
  }
  EXPECT_EQ(trials_done, res.total_trials);
  EXPECT_EQ(rounds, res.rounds);
  EXPECT_TRUE(saw_frozen_gauge);
  EXPECT_TRUE(saw_cell_gauge);

  ASSERT_TRUE(std::filesystem::exists(csv));
  std::ifstream in(csv);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "round,cell,name,n,mean,ci_half,frozen");
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  // One row per cell per round.
  EXPECT_EQ(lines, res.rounds * cfg.cells);
  std::filesystem::remove(csv);
}

TEST(Campaign, EnvOverridesParseKnobs) {
  const char* const kNames[] = {"CIM_EXP_MAX_TRIALS",
                                "CIM_EXP_CHECKPOINT_EVERY",
                                "CIM_EXP_CI_TARGET", "CIM_EXP_PROGRESS"};
  ::setenv("CIM_EXP_MAX_TRIALS", "777", 1);
  ::setenv("CIM_EXP_CHECKPOINT_EVERY", "5", 1);
  ::setenv("CIM_EXP_CI_TARGET", "0.25", 1);
  ::setenv("CIM_EXP_PROGRESS", "on", 1);
  CampaignConfig cfg = cim::exp::apply_env(base_config("env"));
  EXPECT_EQ(cfg.max_trials, 777u);
  EXPECT_EQ(cfg.checkpoint_every_rounds, 5u);
  EXPECT_DOUBLE_EQ(cfg.ci_target, 0.25);
  EXPECT_TRUE(cfg.progress);

  // Malformed values keep the previous setting and print one stderr line
  // each.
  ::setenv("CIM_EXP_MAX_TRIALS", "1e30", 1);
  ::setenv("CIM_EXP_CHECKPOINT_EVERY", "five", 1);
  ::setenv("CIM_EXP_CI_TARGET", "nan", 1);
  ::setenv("CIM_EXP_PROGRESS", "yes", 1);
  ::testing::internal::CaptureStderr();
  cfg = cim::exp::apply_env(cfg);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(cfg.max_trials, 777u);
  EXPECT_EQ(cfg.checkpoint_every_rounds, 5u);
  EXPECT_DOUBLE_EQ(cfg.ci_target, 0.25);
  EXPECT_TRUE(cfg.progress);
  for (const char* name : kNames)
    EXPECT_NE(err.find(name), std::string::npos) << name << ": " << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 4) << err;
  for (const char* name : kNames) ::unsetenv(name);

  // The switch's off spellings turn progress off.
  for (const char* off : {"0", "off", "false"}) {
    ::setenv("CIM_EXP_PROGRESS", off, 1);
    EXPECT_FALSE(cim::exp::apply_env(cfg).progress) << off;
  }
  ::unsetenv("CIM_EXP_PROGRESS");
}

// --- failure paths -----------------------------------------------------------

/// The message of the std::runtime_error `cfg` throws, or "" if it runs.
std::string run_error(const CampaignConfig& cfg) {
  try {
    (void)run_campaign(cfg, noisy_cells());
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::filesystem::path missing_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "tc_no_such_dir";
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Campaign, UnwritableCheckpointThrowsNamingIt) {
  CampaignConfig cfg = base_config("tc_unwritable_ckpt");
  cfg.checkpoint_path = (missing_dir() / "c.cimcampaign").string();
  const std::string err = run_error(cfg);
  EXPECT_NE(err.find("'" + cfg.checkpoint_path + "'"), std::string::npos)
      << err;
}

TEST(Campaign, UnwritableConvergenceCsvThrowsNamingIt) {
  CampaignConfig cfg = base_config("tc_unwritable_csv");
  cfg.convergence_csv = (missing_dir() / "conv.csv").string();
  const std::string err = run_error(cfg);
  EXPECT_NE(err.find("'" + cfg.convergence_csv + "'"), std::string::npos)
      << err;
}

TEST(Campaign, TornManifestIsNeverResumed) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tc_torn.cimcampaign")
          .string();
  std::filesystem::remove(path);
  CampaignConfig cfg = base_config("tc_torn");
  cfg.checkpoint_path = path;
  (void)run_campaign(cfg, noisy_cells());
  const auto slurp = [&] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const std::string full = slurp();
  ASSERT_FALSE(full.empty());

  // The manifest cut off in the middle of each of its lines in turn: the
  // run refuses to resume and leaves the file as it found it.
  for (std::size_t b = 0; b < full.size();) {
    const std::size_t e = full.find('\n', b);
    ASSERT_NE(e, std::string::npos);
    const std::string torn = full.substr(0, b + (e - b + 1) / 2);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << torn;
    }
    const std::string err = run_error(cfg);
    EXPECT_NE(err.find("cannot resume"), std::string::npos)
        << "cut at " << torn.size() << ": " << err;
    EXPECT_EQ(slurp(), torn) << "cut at " << torn.size();
    b = e + 1;
  }
  std::filesystem::remove(path);
}

}  // namespace
