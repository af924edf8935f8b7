/// \file bench_parallel.cpp
/// \brief Parallel-execution-engine sweep: batched VMM throughput and
///        Monte-Carlo fan-out across thread-pool sizes, with a bitwise
///        determinism gate — the result must be identical for every pool
///        size (the engine's core contract), and on multi-core hardware
///        the wall-clock should scale with the pool.
///
/// Emits BENCH_JSON with per-pool-size throughput, the 8-vs-1 speedups,
/// and the machine's hardware concurrency (on a 1-core host the speedups
/// legitimately saturate at ~1x; the determinism gate still applies).
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "memtest/march.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace cim;

namespace {

constexpr std::size_t kArray = 128;     ///< batched-VMM array edge
constexpr std::size_t kBatch = 192;     ///< input vectors per batch
constexpr int kReps = 6;                ///< batches per timing run
constexpr std::size_t kTrials = 36;     ///< Monte-Carlo march trials

std::unique_ptr<crossbar::Crossbar> make_programmed_xbar() {
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = kArray;
  cfg.levels = 16;
  cfg.verified_writes = false;
  cfg.seed = 17;
  auto owner = std::make_unique<crossbar::Crossbar>(cfg);
  auto& xbar = *owner;
  util::Rng rng(23);
  util::Matrix lv(kArray, kArray);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
  xbar.program_levels(lv);
  xbar.reset_stats();
  return owner;
}

util::Matrix make_inputs() {
  util::Rng rng(29);
  util::Matrix v(kBatch, kArray);
  for (auto& x : v.flat()) x = rng.uniform(0.0, 0.3);
  return v;
}

/// Runs kReps batches on a fresh identically-seeded crossbar; returns the
/// last batch result (for the bitwise determinism gate) and the wall time.
util::Matrix run_batches(util::ThreadPool& pool, const util::Matrix& inputs,
                         double& wall_ms) {
  const auto owner = make_programmed_xbar();
  auto& xbar = *owner;
  util::Matrix out;
  bench::WallTimer timer;
  for (int r = 0; r < kReps; ++r) xbar.vmm_batch(inputs, out, &pool);
  wall_ms = timer.elapsed_ms();
  return out;
}

/// One Monte-Carlo trial: march-test a faulty 32x32 array, return coverage.
double march_trial(std::uint64_t trial) {
  util::Rng rng(util::Rng::stream_seed(1009, trial));
  const auto map = fault::FaultMap::with_fault_count(
      32, 32, 16, fault::FaultMix::stuck_at_only(), rng);
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  cfg.levels = 2;
  cfg.verified_writes = true;
  cfg.seed = util::Rng::stream_seed(2003, trial);
  crossbar::Crossbar xbar(cfg);
  xbar.apply_faults(map);
  return memtest::fault_coverage(map,
                                 memtest::run_march(xbar, memtest::march_cstar()));
}

std::vector<double> run_trials(util::ThreadPool& pool, double& wall_ms) {
  std::vector<double> cov(kTrials, 0.0);
  bench::WallTimer timer;
  pool.parallel_for(0, kTrials,
                    [&](std::size_t t) { cov[t] = march_trial(t); });
  wall_ms = timer.elapsed_ms();
  return cov;
}

bool bitwise_equal(const util::Matrix& a, const util::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i)
    if (fa[i] != fb[i]) return false;
  return true;
}

}  // namespace

int main() {
  bench::WallTimer total;
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  bool deterministic = true;

  // --- batched VMM across pool sizes ----------------------------------------
  double t1 = 0.0, t2 = 0.0, t8 = 0.0;
  const auto inputs = make_inputs();
  const auto ref = run_batches(pool1, inputs, t1);
  deterministic &= bitwise_equal(ref, run_batches(pool2, inputs, t2));
  deterministic &= bitwise_equal(ref, run_batches(pool8, inputs, t8));

  const double vmm_count = static_cast<double>(kBatch) * kReps;
  util::Table t({"pool size", "wall (ms)", "VMM/s", "speedup vs 1"});
  t.set_title("Batched VMM (128x128, batch 192) across thread-pool sizes");
  for (const auto& [n, ms] : {std::pair<int, double>{1, t1}, {2, t2}, {8, t8}})
    t.add_row({std::to_string(n), util::Table::num(ms, 1),
               util::Table::num(vmm_count / (ms / 1e3), 0),
               util::Table::num(t1 / ms, 2)});
  t.print(std::cout);

  // --- Monte-Carlo fan-out across pool sizes --------------------------------
  double m1 = 0.0, m2 = 0.0, m8 = 0.0;
  const auto mref = run_trials(pool1, m1);
  deterministic &= mref == run_trials(pool2, m2);
  deterministic &= mref == run_trials(pool8, m8);

  util::Table mt({"pool size", "wall (ms)", "trials/s", "speedup vs 1"});
  mt.set_title("Monte-Carlo fan-out (36 march-test trials, 32x32 arrays)");
  for (const auto& [n, ms] : {std::pair<int, double>{1, m1}, {2, m2}, {8, m8}})
    mt.add_row({std::to_string(n), util::Table::num(ms, 1),
                util::Table::num(static_cast<double>(kTrials) / (ms / 1e3), 0),
                util::Table::num(m1 / ms, 2)});
  mt.print(std::cout);

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << (deterministic
                    ? "determinism gate: PASS — results bit-identical for "
                      "pool sizes 1/2/8\n"
                    : "determinism gate: FAIL — results differ across pool "
                      "sizes\n")
            << "hardware concurrency: " << hw
            << (hw < 2 ? " (single-core host: wall-clock speedup cannot "
                         "materialize here; the gate above is the portable "
                         "check)\n"
                       : "\n");

  bench::report("bench_parallel", total.elapsed_ms(),
                vmm_count * 3 + static_cast<double>(kTrials) * 3,
                {{"vmm_speedup_8v1", t1 / t8},
                 {"mc_speedup_8v1", m1 / m8},
                 {"hw_concurrency", static_cast<double>(hw)},
                 {"deterministic", deterministic ? 1.0 : 0.0}});
  return deterministic ? 0 : 1;
}
