/// \file bench_obs_overhead.cpp
/// \brief Gate: disabled telemetry must cost < 2% on a real workload.
///
/// The cim::obs contract is that with CIM_OBS unset every instrumentation
/// site collapses to one relaxed atomic load and a predictable branch.
/// This bench verifies the contract on the bench_write_read_interleave
/// workload (256x256 interleaved writes + VMMs — the most
/// instrumentation-dense hot path: write_bit, vmm, cache maintenance).
///
/// Measuring a sub-2% effect directly is noise-bound, so the per-site cost
/// is measured by amplification: the workload runs once as-is (t_base) and
/// once with K extra *disabled* telemetry sites executed per operation
/// (t_amp). (t_amp - t_base) / total_extra_sites bounds the per-site
/// disabled cost; multiplying by the real site count per op and dividing
/// by the per-op time gives the overhead fraction the gate checks.
///
/// Exit code is non-zero if the gate fails. Enabled-mode (CIM_OBS=metrics)
/// time is also reported, informationally — that mode buys data with time.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace cim;

namespace {

constexpr std::size_t kArray = 256;
constexpr int kIters = 240;
constexpr int kWritesPerIter = 4;
/// Extra disabled span+counter sites executed per VMM in the amplified run.
constexpr int kAmplify = 64;
/// Instrumented sites a real iteration passes (spans + counter mirrors +
/// attribute calls on the write/vmm path), a deliberate overestimate.
constexpr double kRealSitesPerIter = 4.0 * (kWritesPerIter + 1);
constexpr double kGateFraction = 0.02;

std::unique_ptr<crossbar::Crossbar> make_xbar() {
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = kArray;
  cfg.levels = 16;
  cfg.seed = 41;
  auto owner = std::make_unique<crossbar::Crossbar>(cfg);
  auto& xbar = *owner;
  util::Rng rng(43);
  util::Matrix lv(kArray, kArray);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
  xbar.program_levels(lv);
  xbar.reset_stats();
  return owner;
}

/// The interleave workload; `amplify` adds kAmplify disabled telemetry
/// sites (one span + one gated counter each) per iteration.
double run_workload(bool amplify) {
  const auto owner = make_xbar();
  auto& xbar = *owner;
  util::Rng rng(47);
  std::vector<double> v(kArray, 0.0);
  std::vector<double> currents(kArray, 0.0);
  double sink = 0.0;

  bench::WallTimer timer;
  for (int it = 0; it < kIters; ++it) {
    std::size_t last_row = 0;
    for (int w = 0; w < kWritesPerIter; ++w) {
      const std::size_t r = rng.uniform_int(kArray);
      const std::size_t c = rng.uniform_int(kArray);
      xbar.write_bit(r, c, rng.bernoulli(0.5));
      last_row = r;
    }
    std::fill(v.begin(), v.end(), 0.0);
    v[last_row] = 0.2;
    if (amplify) {
      for (int k = 0; k < kAmplify; ++k) {
        CIM_OBS_SPAN("bench.obs_overhead.amplifier");
        if (obs::enabled())
          obs::Registry::global().counter("bench.obs_overhead").add(1);
      }
    }
    xbar.vmm(v, currents);
    sink += currents[0];
  }
  const double ms = timer.elapsed_ms();
  if (sink == 12345.6789) std::cout << "";  // defeat dead-code elimination
  return ms;
}

double median_of_three(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

int main() {
  bench::WallTimer total;

  // The gate only makes sense with telemetry disabled.
  obs::set_mode(obs::Mode::kOff);

  run_workload(false);  // warm-up: caches, page faults, lazy init
  const double t_base =
      median_of_three(run_workload(false), run_workload(false),
                      run_workload(false));
  const double t_amp =
      median_of_three(run_workload(true), run_workload(true),
                      run_workload(true));

  const double total_extra_sites =
      static_cast<double>(kAmplify) * static_cast<double>(kIters);
  const double per_site_ms = std::max(0.0, t_amp - t_base) / total_extra_sites;
  const double per_iter_ms = t_base / static_cast<double>(kIters);
  const double overhead_frac =
      per_iter_ms > 0.0 ? kRealSitesPerIter * per_site_ms / per_iter_ms : 0.0;
  const bool gate_pass = overhead_frac < kGateFraction;

  // Informational: what enabled metrics mode costs on the same workload.
  obs::set_mode(obs::Mode::kMetrics);
  const double t_metrics = run_workload(false);
  obs::set_mode(obs::Mode::kOff);
  obs::reset();

  util::Table t({"quantity", "value"});
  t.set_title("Disabled-telemetry overhead (amplified estimate, 256x256 "
              "interleave)");
  t.add_row({"baseline (ms)", util::Table::num(t_base, 2)});
  t.add_row({"amplified +" + std::to_string(kAmplify) + " sites/iter (ms)",
             util::Table::num(t_amp, 2)});
  t.add_row({"per-site cost (ns)", util::Table::num(per_site_ms * 1e6, 2)});
  t.add_row({"real sites per iter", util::Table::num(kRealSitesPerIter, 0)});
  t.add_row({"estimated overhead (%)",
             util::Table::num(overhead_frac * 100.0, 3)});
  t.add_row({"CIM_OBS=metrics run (ms)", util::Table::num(t_metrics, 2)});
  t.print(std::cout);

  std::cout << (gate_pass
                    ? "obs overhead gate: PASS — disabled telemetry < 2%\n"
                    : "obs overhead gate: FAIL — disabled telemetry >= 2%\n");

  const double ops = static_cast<double>(kIters) * (kWritesPerIter + 1);
  bench::report("bench_obs_overhead", total.elapsed_ms(), ops,
                {{"overhead_pct", overhead_frac * 100.0},
                 {"per_site_ns", per_site_ms * 1e6},
                 {"metrics_mode_ms", t_metrics},
                 {"gate_pass", gate_pass ? 1.0 : 0.0}});
  return gate_pass ? 0 : 1;
}
