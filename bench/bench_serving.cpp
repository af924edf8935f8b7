/// \file bench_serving.cpp
/// \brief Open-loop serving bench: the PR 8 perf gate plus the SLO
///        characterization sweep of the batching CIM memory controller.
///
/// Four parts, all in simulated time (bit-identical across hosts/threads):
///
///  1. **Batching gate** — the same saturating Poisson stream served
///     request-at-a-time (max_batch = 1) and batch-coalesced
///     (max_batch = 16) on fresh 4-replica pools. Gate: coalescing
///     sustains >= 2x the throughput at equal-or-better p99 (the
///     issue-overhead amortization the controller exists for).
///  2. **Load sweep** — offered load at 20/50/80/120% of the pool's
///     analytic capacity; reports p50/p99/p999, queue depth, utilization
///     and sustained throughput (the saturation curve).
///  3. **Wear-aware routing** — replica 0's arrays are aged (recorded
///     write wear, visible in the health heatmap via CIM_OBS_HEATMAP_FILE);
///     round-robin vs wear-aware traffic shares on the worn replica.
///     Gate: wear-aware at most half of round-robin's worn-replica share.
///  4. **Determinism** — the 80% sweep re-run on a single-lane pool must
///     reproduce the multi-thread latency stats bit-exactly.
///
/// Knobs: CIM_SERVE_* (see README) + CIM_SERVE_TILES for the pool size.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/health.hpp"
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

  // Analytic per-replica capacity (requests/s) under coalesced dispatch:
  // a full batch of B pays issue overhead once over B service times.
  const double s = make_pool(1, dim).request_latency_ns(traffic.input_bits);
  const double B = static_cast<double>(ctl_cfg.max_batch);
  const double cap_rps = static_cast<double>(replicas) * 1e9 * B /
                         (ctl_cfg.issue_overhead_ns + B * s);

  double ops = 0.0;

  // ---- 1. Batching gate --------------------------------------------------
  auto gate_traffic = traffic;
  gate_traffic.rate_rps = 4.0 * cap_rps;  // saturating
  const auto gate_stream = serve::generate(gate_traffic);

  auto run_gate = [&](std::size_t max_batch) {
    auto pool = make_pool(replicas, dim);
    auto cfg = ctl_cfg;
    cfg.max_batch = max_batch;
    cfg.queue_capacity = gate_stream.size() + 1;  // no shedding in the gate
    serve::Controller ctl(pool, cfg);
    const auto st = ctl.run(gate_stream, &tp).stats;
    ops += static_cast<double>(st.completed);
    return st;
  };
  const auto batched = run_gate(ctl_cfg.max_batch > 1 ? ctl_cfg.max_batch : 16);
  const auto single = run_gate(1);
  const double speedup = batched.throughput_rps / single.throughput_rps;
  const bool gate_throughput = speedup >= 2.0;
  const bool gate_p99 = batched.p99_ns <= single.p99_ns;
  std::printf("# batching gate: %.3g rps batched vs %.3g rps single "
              "(%.2fx, need >=2x), p99 %.3g us vs %.3g us\n",
              batched.throughput_rps, single.throughput_rps, speedup,
              batched.p99_ns * 1e-3, single.p99_ns * 1e-3);

  // ---- 2. Load sweep -----------------------------------------------------
  struct SweepPoint {
    double frac;
    serve::ServeStats stats;
  };
  std::vector<SweepPoint> sweep;
  for (const double frac : {0.2, 0.5, 0.8, 1.2}) {
    auto cfg = traffic;
    cfg.rate_rps = frac * cap_rps;
    auto pool = make_pool(replicas, dim);
    serve::Controller ctl(pool, ctl_cfg);
    const auto st = ctl.run(serve::generate(cfg), &tp).stats;
    ops += static_cast<double>(st.completed);
    double util = 0.0;
    for (const double u : st.per_replica_utilization) util += u;
    util /= static_cast<double>(st.per_replica_utilization.size());
    std::printf("# load %.0f%%: p50 %.3g us p99 %.3g us p999 %.3g us | "
                "sustained %.3g rps | mean queue %.1f (max %zu) | "
                "util %.2f | mean batch %.1f | shed %zu\n",
                100.0 * frac, st.p50_ns * 1e-3, st.p99_ns * 1e-3,
                st.p999_ns * 1e-3, st.throughput_rps, st.mean_queue_depth,
                st.max_queue_depth, util, st.mean_batch, st.rejected);
    sweep.push_back({frac, st});
  }
  const auto& slo = sweep[2].stats;       // 80% — the SLO operating point
  const auto& overload = sweep[3].stats;  // 120% — saturation

  // ---- 3. Wear-aware routing (heatmap-verifiable wear) -------------------
  const obs::Mode entry_mode = obs::mode();  // restored below; keep the
  obs::set_mode(obs::Mode::kHealth);         // user's CIM_OBS for report()
  auto run_policy = [&](serve::RoutingPolicy policy) {
    auto pool = make_pool(replicas, dim);
    auto& worn = pool.replica(0);
    for (std::size_t b = 0; b < worn.tile_count(); ++b)
      worn.tile(b).plus_array().health_monitor().record_write(0, 0, 1000000);
    auto cfg_t = traffic;
    // SLO operating point: with headroom the router is free to steer; under
    // deep overload every replica must absorb backlog, worn or not.
    cfg_t.rate_rps = 0.8 * cap_rps;
    auto cfg_c = ctl_cfg;
    cfg_c.routing = policy;
    serve::Controller ctl(pool, cfg_c);
    const auto st = ctl.run(serve::generate(cfg_t), &tp).stats;
    ops += static_cast<double>(st.completed);
    return static_cast<double>(st.per_replica_requests[0]) /
           static_cast<double>(st.completed);
  };
  const double worn_share_rr = run_policy(serve::RoutingPolicy::kRoundRobin);
  const double worn_share_wear = run_policy(serve::RoutingPolicy::kWearAware);
  // The heatmap hook exports the same monitors the router consumed.
  obs::export_health_heatmap_if_requested();
  obs::set_mode(entry_mode);
  const bool gate_wear = worn_share_wear <= 0.5 * worn_share_rr;
  std::printf("# wear routing: worn-replica share rr %.3f -> wear-aware %.3f "
              "(need <= half)\n", worn_share_rr, worn_share_wear);

  // ---- 4. Determinism across thread counts -------------------------------
  auto run_slo = [&](util::ThreadPool* pool_threads) {
    auto cfg = traffic;
    cfg.rate_rps = 0.8 * cap_rps;
    auto pool = make_pool(replicas, dim);
    serve::Controller ctl(pool, ctl_cfg);
    return ctl.run(serve::generate(cfg), pool_threads).stats;
  };
  util::ThreadPool one(1);
  const auto st_one = run_slo(&one);
  const bool deterministic = st_one.p50_ns == slo.p50_ns &&
                             st_one.p99_ns == slo.p99_ns &&
                             st_one.p999_ns == slo.p999_ns &&
                             st_one.throughput_rps == slo.throughput_rps;
  ops += static_cast<double>(st_one.completed);

  const bool pass = gate_throughput && gate_p99 && gate_wear && deterministic;
  if (!pass)
    std::printf("# GATE FAILED: throughput=%d p99=%d wear=%d deterministic=%d\n",
                gate_throughput, gate_p99, gate_wear, deterministic);

  double util80 = 0.0;
  for (const double u : slo.per_replica_utilization) util80 += u;
  util80 /= static_cast<double>(slo.per_replica_utilization.size());

  bench::report(
      "bench_serving", timer.elapsed_ms(), ops,
      {{"serve_speedup_batched", speedup},
       {"p99_batched_us", batched.p99_ns * 1e-3},
       {"p99_single_us", single.p99_ns * 1e-3},
       {"p50_us", slo.p50_ns * 1e-3},
       {"p99_us", slo.p99_ns * 1e-3},
       {"p999_us", slo.p999_ns * 1e-3},
       {"mean_queue_depth", slo.mean_queue_depth},
       {"max_queue_depth", static_cast<double>(slo.max_queue_depth)},
       {"util_mean", util80},
       {"sustained_rps_overload", overload.throughput_rps},
       {"shed_frac_overload",
        static_cast<double>(overload.rejected) /
            static_cast<double>(overload.offered)},
       {"worn_share_rr", worn_share_rr},
       {"worn_share_wear", worn_share_wear},
       {"replicas", static_cast<double>(replicas)},
       {"deterministic", deterministic ? 1.0 : 0.0},
       {"gate_pass", pass ? 1.0 : 0.0}});
  return pass ? 0 : 1;
}
