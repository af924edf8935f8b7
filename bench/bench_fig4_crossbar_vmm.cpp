/// \file bench_fig4_crossbar_vmm.cpp
/// \brief Regenerates **Fig. 4** — the crossbar VMM: "all n MAC operations
///        are performed with O(1) time complexity". Sweeps array sizes and
///        compares the crossbar's constant-latency analog VMM against a
///        sequential MAC datapath; also sweeps conductance levels to show
///        the accuracy/precision trade-off.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace cim;

namespace {

util::Matrix random_levels(std::size_t n, int levels, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix m(n, n);
  for (auto& v : m.flat())
    v = static_cast<double>(rng.uniform_int(static_cast<std::uint64_t>(levels)));
  return m;
}

}  // namespace

int main() {
  bench::WallTimer total;
  // --- O(1) latency vs sequential MAC --------------------------------------
  {
    util::Table t({"n (n x n)", "crossbar VMM (ns)", "sequential MACs (ns)",
                   "speedup", "array energy (pJ)"});
    t.set_title("Fig. 4a — analog VMM latency is O(1) in array size");
    for (const std::size_t n : {16u, 32u, 64u, 128u}) {
      crossbar::CrossbarConfig cfg;
      cfg.rows = cfg.cols = n;
      cfg.levels = 16;
      cfg.verified_writes = true;
      cfg.seed = 3;
      crossbar::Crossbar xbar(cfg);
      xbar.program_levels(random_levels(n, 16, 5));
      xbar.reset_stats();

      std::vector<double> v(n, 0.2);
      (void)xbar.vmm(v);
      const double t_cim = xbar.stats().time_ns;
      // Sequential datapath: n*n MACs at 1 MAC/ns.
      const double t_seq = static_cast<double>(n) * static_cast<double>(n);
      t.add_row({std::to_string(n), util::Table::num(t_cim, 2),
                 util::Table::num(t_seq, 0),
                 util::Table::num(t_seq / t_cim, 0),
                 util::Table::num(xbar.stats().energy_pj, 2)});
    }
    t.print(std::cout);
  }

  // --- accuracy vs number of conductance levels -----------------------------
  {
    util::Table t({"levels N", "relative VMM error (mean)",
                   "relative VMM error (p95)"});
    t.set_title("Fig. 4 — VMM accuracy vs conductance quantization levels");
    for (const int levels : {2, 4, 8, 16}) {
      crossbar::CrossbarConfig cfg;
      cfg.rows = cfg.cols = 32;
      cfg.levels = levels;
      cfg.verified_writes = true;
      cfg.seed = 7;
      crossbar::Crossbar xbar(cfg);
      xbar.program_levels(random_levels(32, levels, 9));

      std::vector<double> v(32, 0.2);
      std::vector<double> errs;
      for (int rep = 0; rep < 32; ++rep) {
        const auto meas = xbar.vmm(v);
        const auto ideal = xbar.ideal_vmm(v);
        for (std::size_t c = 0; c < 32; ++c)
          if (ideal[c] > 1.0)
            errs.push_back(std::abs(meas[c] - ideal[c]) / ideal[c]);
      }
      std::sort(errs.begin(), errs.end());
      const auto s = util::summarize(errs);
      t.add_row({std::to_string(levels), util::Table::num(s.mean, 4),
                 util::Table::num(util::quantile_sorted(errs, 0.95), 4)});
    }
    t.print(std::cout);
  }

  // --- IR drop effect --------------------------------------------------------
  {
    util::Table t({"wire R (Ohm/seg)", "current loss vs ideal"});
    t.set_title("Fig. 4 — wire IR-drop attenuation (64 x 64 array)");
    for (const double rw : {0.0, 50.0, 500.0, 2000.0}) {
      crossbar::CrossbarConfig cfg;
      cfg.rows = cfg.cols = 64;
      cfg.levels = 16;
      cfg.model_ir_drop = rw > 0.0;
      cfg.wire_resistance_ohm = rw;
      cfg.verified_writes = true;
      cfg.seed = 11;
      crossbar::Crossbar xbar(cfg);
      xbar.program_levels(random_levels(64, 16, 13));
      std::vector<double> v(64, 0.2);
      double meas = 0.0, ideal = 0.0;
      for (int rep = 0; rep < 8; ++rep) {
        const auto m = xbar.vmm(v);
        const auto i = xbar.ideal_vmm(v);
        for (std::size_t c = 0; c < 64; ++c) {
          meas += m[c];
          ideal += i[c];
        }
      }
      t.add_row({util::Table::num(rw, 1),
                 util::Table::num(1.0 - meas / ideal, 4)});
    }
    t.print(std::cout);
  }
  // --- fidelity-dial throughput: tier 1/2 vs the full analog model ----------
  // The raw-speed tiers trade modelled physics for wall-clock: tier 1
  // (calibrated noise, closed-form energy) measured about 2.3x over tier 0
  // on this workload (1.9-2.7x over five RelWithDebInfo runs on a 4-vCPU
  // Xeon with AVX-512; about 2.75x while tier 0 drew its noise through
  // libm); tier 2 (pure ideal) lands in the same band — both are bound by
  // streaming the conductance matrix, and tier 1's hash noise is nearly
  // free. Accuracy deltas are reported alongside so the speedup is never
  // read in isolation.
  double tier1_speedup = 0.0, tier2_speedup = 0.0;
  double tier1_rel_dev = 0.0, tier2_rel_dev = 0.0;
  {
    const std::size_t n = 128;
    crossbar::CrossbarConfig cfg;
    cfg.rows = cfg.cols = n;
    cfg.levels = 16;
    cfg.verified_writes = true;
    cfg.seed = 17;
    crossbar::Crossbar xbar(cfg);
    xbar.program_levels(random_levels(n, 16, 19));
    std::vector<double> v(n);
    util::Rng vr(21);
    for (auto& x : v) x = vr.uniform(0.0, 0.3);
    (void)xbar.vmm(v);  // warm the conductance caches

    // Best of three passes: on a loaded single-core runner one scheduler
    // preemption inside a pass would otherwise dominate the tier ratio.
    constexpr int kReps = 400;
    const auto time_tier = [&](crossbar::FidelityTier tier) {
      double best = 1e300;
      double sink = 0.0;
      for (int pass = 0; pass < 3; ++pass) {
        bench::WallTimer t;
        for (int rep = 0; rep < kReps; ++rep) {
          const auto y = xbar.vmm(v, tier);
          sink += y[n / 2];
        }
        best = std::min(best, t.elapsed_ms());
      }
      return std::pair<double, double>(best, sink);
    };

    const auto [t0, s0] = time_tier(crossbar::FidelityTier::kFull);
    const auto [t1, s1] = time_tier(crossbar::FidelityTier::kCalibrated);
    const auto [t2, s2] = time_tier(crossbar::FidelityTier::kIdeal);
    (void)(s0 + s1 + s2);  // sinks only guard against dead-code elimination
    tier1_speedup = t1 > 0.0 ? t0 / t1 : 0.0;
    tier2_speedup = t2 > 0.0 ? t0 / t2 : 0.0;

    // Mean per-column relative deviation of each tier from the tier-0
    // expectation (the ideal oracle is the common reference scale).
    const auto ideal = xbar.ideal_vmm(v);
    std::vector<double> mean0(n, 0.0), mean1(n, 0.0), mean2(n, 0.0);
    constexpr int kStatReps = 64;
    for (int rep = 0; rep < kStatReps; ++rep) {
      const auto y0 = xbar.vmm(v, crossbar::FidelityTier::kFull);
      const auto y1 = xbar.vmm(v, crossbar::FidelityTier::kCalibrated);
      const auto y2 = xbar.vmm(v, crossbar::FidelityTier::kIdeal);
      for (std::size_t c = 0; c < n; ++c) {
        mean0[c] += y0[c] / kStatReps;
        mean1[c] += y1[c] / kStatReps;
        mean2[c] += y2[c] / kStatReps;
      }
    }
    double d1 = 0.0, d2 = 0.0, scale = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      d1 += std::abs(mean1[c] - mean0[c]);
      d2 += std::abs(mean2[c] - mean0[c]);
      scale += std::abs(ideal[c]);
    }
    tier1_rel_dev = d1 / scale;
    tier2_rel_dev = d2 / scale;

    util::Table t({"tier", "wall (ms, 400 VMMs)", "speedup vs full",
                   "mean |dev| vs tier 0"});
    t.set_title("Fig. 4 workload — fidelity-dial throughput (128 x 128)");
    t.add_row({"0 full", util::Table::num(t0, 2), "1.00", "0"});
    t.add_row({"1 calibrated", util::Table::num(t1, 2),
               util::Table::num(tier1_speedup, 2),
               util::Table::num(tier1_rel_dev, 5)});
    t.add_row({"2 ideal", util::Table::num(t2, 2),
               util::Table::num(tier2_speedup, 2),
               util::Table::num(tier2_rel_dev, 5)});
    t.print(std::cout);
  }

  std::cout << "shape check: crossbar latency flat in n (speedup grows ~n^2);"
               "\nerror shrinks with more levels; IR loss grows with wire "
               "resistance.\n";
  bench::report("bench_fig4_crossbar_vmm", total.elapsed_ms(), 164.0,
                {{"tier1_speedup", tier1_speedup},
                 {"tier2_speedup", tier2_speedup},
                 {"tier1_rel_dev", tier1_rel_dev},
                 {"tier2_rel_dev", tier2_rel_dev}});
  return 0;
}
