/// \file bench_write_read_interleave.cpp
/// \brief Write-heavy workload gate for the incremental conductance cache.
///
/// The paper's testing / fault-tolerance loops (march tests, program-verify,
/// retraining-in-the-loop, online scouting) interleave single-cell writes
/// with array reads. Before dirty tracking, every such write forced the
/// next VMM to rebuild the whole O(rows*cols) conductance cache; with
/// dirty tracking the repair is O(|dirty|).
///
/// Two workloads at 256x256, each run twice — incremental_cache on vs. off
/// (the legacy full-rebuild behaviour) — from identical seeds:
///
///   1. program-verify: write a handful of cells, then verify-read them by
///      driving only the written wordline (one-hot voltage vector). This is
///      the gated workload: outputs must be bit-identical between the two
///      cache modes, and the incremental mode must be >= 5x faster.
///   2. dense interleave: same write pattern, but every VMM drives all 256
///      wordlines (informational; the VMM kernel itself dominates here).
///
/// Exit code is non-zero if the bit-identical gate or the 5x speedup gate
/// fails, mirroring bench_parallel's determinism gate.
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace cim;

namespace {

constexpr std::size_t kArray = 256;   ///< array edge (rows == cols)
constexpr int kIters = 240;           ///< write/verify rounds per run
constexpr int kWritesPerIter = 4;     ///< cells written per round

std::unique_ptr<crossbar::Crossbar> make_xbar(bool incremental) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = kArray;
  cfg.levels = 16;
  cfg.seed = 41;
  cfg.incremental_cache = incremental;
  auto owner = std::make_unique<crossbar::Crossbar>(cfg);
  auto& xbar = *owner;
  util::Rng rng(43);
  util::Matrix lv(kArray, kArray);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
  xbar.program_levels(lv);
  xbar.reset_stats();
  return owner;
}

/// Runs the interleaved write/VMM loop; `dense` selects all-wordline reads
/// instead of the one-hot program-verify read. Returns the concatenation of
/// every VMM output (the bit-identical gate compares these across modes).
std::vector<double> run_workload(bool incremental, bool dense,
                                 double& wall_ms,
                                 crossbar::CrossbarStats& stats_out) {
  const auto owner = make_xbar(incremental);
  auto& xbar = *owner;
  util::Rng rng(47);  // same op sequence for both cache modes
  std::vector<double> v(kArray, 0.0);
  std::vector<double> currents(kArray, 0.0);
  std::vector<double> outputs;
  outputs.reserve(static_cast<std::size_t>(kIters) * kArray);

  bench::WallTimer timer;
  for (int it = 0; it < kIters; ++it) {
    std::size_t last_row = 0;
    for (int w = 0; w < kWritesPerIter; ++w) {
      const std::size_t r = rng.uniform_int(kArray);
      const std::size_t c = rng.uniform_int(kArray);
      xbar.write_bit(r, c, rng.bernoulli(0.5));
      last_row = r;
    }
    if (dense) {
      for (auto& x : v) x = 0.2;
    } else {
      // Program-verify read: drive only the last written wordline.
      std::fill(v.begin(), v.end(), 0.0);
      v[last_row] = 0.2;
    }
    xbar.vmm(v, currents);
    outputs.insert(outputs.end(), currents.begin(), currents.end());
  }
  wall_ms = timer.elapsed_ms();
  stats_out = xbar.stats();
  return outputs;
}

}  // namespace

int main() {
  bench::WallTimer total;
  bool all_pass = true;
  util::Table t({"workload", "full-rebuild (ms)", "incremental (ms)",
                 "speedup", "rebuilds", "delta updates", "bit-identical"});
  t.set_title("Interleaved write/VMM at 256x256: incremental cache vs. "
              "whole-cache invalidation");

  double speedup_verify = 0.0, speedup_dense = 0.0;
  crossbar::CrossbarStats incr_stats{};
  for (const bool dense : {false, true}) {
    double t_full = 0.0, t_incr = 0.0;
    crossbar::CrossbarStats s_full{}, s_incr{};
    const auto ref = run_workload(/*incremental=*/false, dense, t_full, s_full);
    const auto out = run_workload(/*incremental=*/true, dense, t_incr, s_incr);
    const bool identical = ref == out;
    const double speedup = t_incr > 0.0 ? t_full / t_incr : 0.0;
    (dense ? speedup_dense : speedup_verify) = speedup;
    if (!dense) incr_stats = s_incr;
    // The program-verify workload is the gate; the dense one is reported
    // for context (the VMM kernel dominates its runtime on both paths).
    all_pass &= identical && (dense || speedup >= 5.0);
    t.add_row({dense ? "dense interleave" : "program-verify",
               util::Table::num(t_full, 1), util::Table::num(t_incr, 1),
               util::Table::num(speedup, 2),
               std::to_string(s_incr.cache_full_rebuilds),
               std::to_string(s_incr.cache_delta_updates),
               identical ? "yes" : "NO"});
  }
  t.print(std::cout);

  std::cout << (all_pass
                    ? "write/read interleave gate: PASS — bit-identical and "
                      ">=5x on the program-verify workload\n"
                    : "write/read interleave gate: FAIL\n");

  const double ops = 2.0 * 2.0 * kIters * (kWritesPerIter + 1);
  bench::report("bench_write_read_interleave", total.elapsed_ms(), ops,
                {{"speedup_program_verify", speedup_verify},
                 {"speedup_dense", speedup_dense},
                 {"incr_full_rebuilds",
                  static_cast<double>(incr_stats.cache_full_rebuilds)},
                 {"incr_delta_updates",
                  static_cast<double>(incr_stats.cache_delta_updates)},
                 {"incr_dirty_cells",
                  static_cast<double>(incr_stats.cache_dirty_cells)},
                 {"gate_pass", all_pass ? 1.0 : 0.0}});
  return all_pass ? 0 : 1;
}
