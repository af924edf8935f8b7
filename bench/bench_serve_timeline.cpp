/// \file bench_serve_timeline.cpp
/// \brief Request-lifecycle observability bench: the PR 8 capacity sweep
///        re-run through the PR 9 windowed SLO engine and latency
///        decomposition, plus the disabled-observability overhead gate.
///
/// Four parts, all in simulated time (bit-identical across hosts/threads):
///
///  1. **Decomposed sweep** — offered load at 20/50/80/120% of the pool's
///     analytic capacity with windowed aggregation and the SLO on.
///     Per point: the five-way mean latency decomposition (batch wait /
///     queue wait / amortized issue / bit-serial / reduce), per-window
///     p99, burn-rate alerts and the error budget.
///  2. **Queue-domination gate** — the decomposition must *prove* the PR 8
///     observation: at 120% capacity the queue-wait component dominates
///     end-to-end latency (> 50% of the mean and the largest component),
///     while at 20% it does not dominate.
///  3. **SLO gate** — the 120% point must breach the SLO (fast burn-rate
///     alerts fire), the 20% point must not.
///  4. **Overhead-when-off gate (PR 4 mold)** — the observability layer
///     disabled (window_ns = 0, no SLO, no flight, CIM_OBS off) must cost
///     < 2% on the 80% sweep point. Sub-2% is noise-bound to measure
///     directly, so the per-site disabled cost is amplified: the run
///     repeats with K extra disabled telemetry sites per request and the
///     difference bounds the per-site cost.
///
/// Also asserts the windowed series is bit-identical at 1 thread vs the
/// global pool (the determinism contract extended to windows).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"
#include "serve/controller.hpp"
#include "serve/tile_pool.hpp"
#include "serve/traffic.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cim;

util::Matrix bench_weights(std::size_t out, std::size_t in) {
  util::Rng rng(2024);
  util::Matrix w(out, in);
  for (auto& v : w.flat())
    v = static_cast<double>(static_cast<long>(rng.uniform_int(15)) - 7);
  return w;
}

serve::TilePoolConfig pool_cfg(std::size_t replicas) {
  serve::TilePoolConfig cfg;
  cfg.replicas = replicas;
  cfg.system.tile.array.model_ir_drop = false;  // perf path
  cfg.seed = 4242;
  return cfg;
}

serve::TilePool make_pool(std::size_t replicas, std::size_t dim) {
  return serve::TilePool(bench_weights(dim, dim), pool_cfg(replicas));
}

std::size_t env_tiles() {
  const auto n = obs::record::env_u64("CIM_SERVE_TILES",
                                      std::getenv("CIM_SERVE_TILES"), 1024);
  return n.value_or(0) > 0 ? static_cast<std::size_t>(*n) : 4;
}

/// Extra disabled telemetry sites per request in the amplified run.
constexpr int kAmplify = 64;
/// Disabled-gate sites a request passes through the new observability
/// layer (windows/slo/flight/trace branches + decomposition arithmetic),
/// a deliberate overestimate.
constexpr double kRealSitesPerRequest = 8.0;
constexpr double kGateFraction = 0.02;

double median_of_three(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

int main() {
  const bench::WallTimer timer;
  const std::size_t replicas = env_tiles();
  const std::size_t dim = 64;

  serve::TrafficConfig traffic;
  traffic.in_dim = dim;
  traffic.requests = 4000;
  serve::ControllerConfig ctl_cfg;
  serve::apply_env_overrides(traffic, ctl_cfg);
  util::ThreadPool& tp = util::ThreadPool::global();

  // Analytic per-replica capacity under coalesced dispatch (PR 8).
  const double s = make_pool(1, dim).request_latency_ns(traffic.input_bits);
  const double B = static_cast<double>(ctl_cfg.max_batch);
  const double cap_rps = static_cast<double>(replicas) * 1e9 * B /
                         (ctl_cfg.issue_overhead_ns + B * s);

  // SLO: generous at healthy load (2x the worst deadline-bound dispatch
  // path: full coalescing wait + issue + a whole batch of service), but
  // far below the queue-buildup latencies of sustained overload.
  const double slo_target_ns =
      2.0 * (ctl_cfg.batch_deadline_ns + ctl_cfg.issue_overhead_ns + B * s);

  double ops = 0.0;

  // ---- 1. Decomposed capacity sweep --------------------------------------
  struct SweepPoint {
    double frac;
    serve::ServeStats stats;
  };
  auto run_point = [&](double frac, util::ThreadPool* pool_threads) {
    auto cfg_t = traffic;
    cfg_t.rate_rps = frac * cap_rps;
    auto cfg_c = ctl_cfg;
    // ~40 windows over the nominal stream duration at every sweep point.
    const double duration_ns =
        static_cast<double>(cfg_t.requests) / cfg_t.rate_rps * 1e9;
    cfg_c.window_ns = duration_ns / 40.0;
    cfg_c.slo_target_ns = slo_target_ns;
    cfg_c.slo_objective = 0.99;
    auto pool = make_pool(replicas, dim);
    serve::Controller ctl(pool, cfg_c);
    auto st = ctl.run(serve::generate(cfg_t), pool_threads).stats;
    ops += static_cast<double>(st.completed);
    return st;
  };

  std::vector<SweepPoint> sweep;
  for (const double frac : {0.2, 0.5, 0.8, 1.2}) {
    const auto st = run_point(frac, &tp);
    std::printf(
        "# load %.0f%%: p50 %.3g us p99 %.3g us | decomposition (mean us): "
        "batch %.3g + queue %.3g + issue %.3g + bitserial %.3g + reduce %.3g "
        "| windows %zu | burn alerts fast %zu slow %zu | budget %.2fx%s\n",
        100.0 * frac, st.p50_ns * 1e-3, st.p99_ns * 1e-3,
        st.mean_batch_wait_ns * 1e-3, st.mean_queue_wait_ns * 1e-3,
        st.mean_issue_share_ns * 1e-3, st.mean_bitserial_ns * 1e-3,
        st.mean_reduce_ns * 1e-3, st.windows.size(), st.slo.fast_alerts,
        st.slo.slow_alerts, st.slo.budget_consumed,
        st.slo.breached ? " BREACHED" : "");
    sweep.push_back({frac, st});
  }
  const auto& healthy = sweep[0].stats;   // 20%
  const auto& slo_pt = sweep[2].stats;    // 80% — the SLO operating point
  const auto& overload = sweep[3].stats;  // 120% — saturation

  // ---- 2. Queue-domination gate ------------------------------------------
  auto queue_share = [](const serve::ServeStats& st) {
    return st.mean_ns > 0.0 ? st.mean_queue_wait_ns / st.mean_ns : 0.0;
  };
  auto largest_component_is_queue = [](const serve::ServeStats& st) {
    return st.mean_queue_wait_ns >= st.mean_batch_wait_ns &&
           st.mean_queue_wait_ns >= st.mean_issue_share_ns &&
           st.mean_queue_wait_ns >= st.mean_bitserial_ns &&
           st.mean_queue_wait_ns >= st.mean_reduce_ns;
  };
  const bool gate_queue_dom = queue_share(overload) > 0.5 &&
                              largest_component_is_queue(overload) &&
                              queue_share(healthy) < 0.5;
  std::printf("# queue domination: share %.2f at 120%% (need > 0.5 and "
              "largest), %.2f at 20%% (need < 0.5)\n",
              queue_share(overload), queue_share(healthy));

  // ---- 3. SLO gate --------------------------------------------------------
  const bool gate_slo = overload.slo.breached && overload.slo.fast_alerts > 0 &&
                        !healthy.slo.breached;
  std::printf("# slo: 120%% breached=%d (fast alerts %zu, budget %.2fx), "
              "20%% breached=%d\n",
              overload.slo.breached, overload.slo.fast_alerts,
              overload.slo.budget_consumed, healthy.slo.breached);

  // ---- Determinism: windowed series identical at 1 thread ----------------
  util::ThreadPool one(1);
  const auto st_one = run_point(0.8, &one);
  bool deterministic = st_one.windows.size() == slo_pt.windows.size() &&
                       st_one.slo.fast_alerts == slo_pt.slo.fast_alerts &&
                       st_one.slo.budget_consumed == slo_pt.slo.budget_consumed;
  if (deterministic)
    for (std::size_t i = 0; i < st_one.windows.size(); ++i) {
      const auto& a = st_one.windows[i];
      const auto& b = slo_pt.windows[i];
      deterministic = deterministic && a.index == b.index &&
                      a.completed == b.completed && a.p99_ns == b.p99_ns &&
                      a.burn_rate == b.burn_rate;
    }

  // ---- 4. Overhead-when-off gate (PR 4 amplification mold) ---------------
  obs::set_mode(obs::Mode::kOff);
  auto run_off = [&](bool amplify) {
    auto cfg_t = traffic;
    cfg_t.rate_rps = 0.8 * cap_rps;
    auto pool = make_pool(replicas, dim);
    serve::Controller ctl(pool, ctl_cfg);  // window/slo/flight all off
    const auto stream = serve::generate(cfg_t);
    bench::WallTimer t;
    auto report = ctl.run(stream, &tp);
    if (amplify)
      for (std::size_t r = 0; r < stream.size(); ++r)
        for (int k = 0; k < kAmplify; ++k) {
          CIM_OBS_SPAN("bench.serve_timeline.amplifier");
          if (obs::enabled())
            obs::Registry::global().counter("bench.serve_timeline").add(1);
        }
    const double ms = t.elapsed_ms();
    ops += static_cast<double>(report.stats.completed);
    return ms;
  };
  run_off(false);  // warm-up
  const double t_base =
      median_of_three(run_off(false), run_off(false), run_off(false));
  const double t_amp =
      median_of_three(run_off(true), run_off(true), run_off(true));
  const double total_extra =
      static_cast<double>(kAmplify) * static_cast<double>(traffic.requests);
  const double per_site_ms = std::max(0.0, t_amp - t_base) / total_extra;
  const double per_req_ms = t_base / static_cast<double>(traffic.requests);
  const double overhead_frac =
      per_req_ms > 0.0 ? kRealSitesPerRequest * per_site_ms / per_req_ms : 0.0;
  const bool gate_overhead = overhead_frac < kGateFraction;
  std::printf("# off-mode overhead: %.3f%% (amplified bound, need < 2%%)\n",
              overhead_frac * 100.0);

  const bool pass =
      gate_queue_dom && gate_slo && gate_overhead && deterministic;
  if (!pass)
    std::printf("# GATE FAILED: queue_dom=%d slo=%d overhead=%d "
                "deterministic=%d\n",
                gate_queue_dom, gate_slo, gate_overhead, deterministic);

  bench::report(
      "bench_serve_timeline", timer.elapsed_ms(), ops,
      {{"p99_us", slo_pt.p99_ns * 1e-3},
       {"p99_us_overload", overload.p99_ns * 1e-3},
       {"queue_share_overload", queue_share(overload)},
       {"queue_share_healthy", queue_share(healthy)},
       {"mean_batch_wait_us", overload.mean_batch_wait_ns * 1e-3},
       {"mean_queue_wait_us", overload.mean_queue_wait_ns * 1e-3},
       {"mean_issue_share_us", overload.mean_issue_share_ns * 1e-3},
       {"mean_bitserial_us", overload.mean_bitserial_ns * 1e-3},
       {"mean_reduce_us", overload.mean_reduce_ns * 1e-3},
       {"slo_breached_overload", overload.slo.breached ? 1.0 : 0.0},
       {"slo_fast_alerts_overload",
        static_cast<double>(overload.slo.fast_alerts)},
       {"slo_budget_consumed_overload", overload.slo.budget_consumed},
       {"windows_closed", static_cast<double>(overload.windows.size())},
       {"overhead_pct", overhead_frac * 100.0},
       {"replicas", static_cast<double>(replicas)},
       {"deterministic", deterministic ? 1.0 : 0.0},
       {"gate_pass", pass ? 1.0 : 0.0}});
  return pass ? 0 : 1;
}
