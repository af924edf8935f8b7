/// \file controller.hpp
/// \brief SLO-aware batching CIM memory controller: admission queue,
///        adaptive batch coalescing, health-aware routing, and open-loop
///        latency accounting over a tile-replica pool.
///
/// The controller is a deterministic event-driven simulation in two phases
/// (the shape of trace-driven memory-controller simulators — HybridSim's
/// `Controller`/`Trace` layers):
///
///  1. **Schedule** (serial): walk the arrival stream in simulated time,
///     admit requests into per-compatibility-class batch queues, flush a
///     batch when it reaches `max_batch` *or* its oldest request has waited
///     `batch_deadline_ns` (size-or-deadline coalescing), route each flush
///     to a replica by policy, and account start/finish times against the
///     replicas' busy horizons. Per-request service time is the tile
///     model's closed-form `request_latency_ns` (data-independent), so the
///     entire timing plan needs no execution — and is bit-identical at any
///     `CIM_THREADS`.
///  2. **Execute** (parallel): replay the planned batches replica-by-
///     replica across the thread pool — one lane per replica, per-replica
///     batches in flush order, each member one `CimSystem::vmm_int` in
///     member order. A batch is thus exactly back-to-back vmm_int calls:
///     device state (noise streams, read disturb, caches) evolves across
///     the members as the schedule says, so per-request results are
///     bit-identical for any pool size.
///
/// **Why batching wins** (the headline perf story): every dispatch onto a
/// tile pays `issue_overhead_ns` — operand staging into the DAC buffers,
/// tile arbitration and control-word setup — before the bit-serial cycles
/// start, the CIM analogue of a DRAM row activation amortized over a
/// burst. Request-at-a-time serving pays it per request; a coalesced batch
/// pays it once, lifting per-replica capacity from 1/(o + s) to
/// B/(o + B*s) requests per second.
///
/// **SLO policies**: routing kRoundRobin / kLeastLoaded / kWearAware (the
/// latter biases the least-loaded choice by the pool's normalized health
/// scores — traffic steers away from worn/drifting replicas, HybridSim's
/// aging-aware scheduling); optional fidelity escalation downgrades kFull
/// requests to kCalibrated while the admission queue is above a threshold
/// (load shedding via the PR 7 fidelity dial); admission beyond
/// `queue_capacity` rejects (open-loop overload must shed, not buffer
/// unboundedly).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/tile_pool.hpp"
#include "serve/traffic.hpp"
#include "serve/window.hpp"
#include "util/thread_pool.hpp"

namespace cim::serve {

enum class RoutingPolicy : int {
  kRoundRobin = 0,   ///< cyclic, load- and health-blind
  kLeastLoaded = 1,  ///< smallest busy backlog at flush time
  kWearAware = 2,    ///< backlog + 50 us * normalized health score
};

constexpr const char* policy_name(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kRoundRobin: return "rr";
    case RoutingPolicy::kLeastLoaded: return "least";
    case RoutingPolicy::kWearAware: return "wear";
  }
  return "unknown";
}

struct ControllerConfig {
  /// Flush a batch at this many coalesced requests. 1 = request-at-a-time
  /// dispatch (the baseline the serving bench gates against).
  std::size_t max_batch = 16;
  /// Flush when the oldest queued request of a batch has waited this long
  /// (ns, simulated) — bounds the coalescing latency cost at low load.
  double batch_deadline_ns = 2000.0;
  /// Fixed per-dispatch cost (ns): operand staging + tile arbitration +
  /// control setup, paid once per batch before its bit-serial cycles.
  double issue_overhead_ns = 600.0;
  RoutingPolicy routing = RoutingPolicy::kLeastLoaded;
  /// Downgrade kFull requests to kCalibrated while the admission queue is
  /// at or above `escalation_queue_depth` (off by default).
  bool tier_escalation = false;
  std::size_t escalation_queue_depth = 64;
  /// Admission-queue capacity; arrivals beyond it are rejected.
  std::size_t queue_capacity = 8192;

  // --- Request-lifecycle observability (all off by default) -----------------
  /// Simulated-time window width for the live per-window latency/rate
  /// series (ServeStats::windows): 0 (off) or at least 1 ns.
  double window_ns = 0.0;
  /// SLO latency target; > 0 (with window_ns > 0) turns on error-budget
  /// accounting and the fast/slow burn-rate alerts of serve/window.hpp
  /// over `window_ns` windows.
  double slo_target_ns = 0.0;
  /// Required good fraction of the SLO, in (0, 1).
  double slo_objective = 0.999;
  /// Lifecycle events a flight dump holds: the most recent request
  /// records and controller decisions up to its trigger.
  std::size_t flight_capacity = 256;
  /// Rejections within one window that count as a shed spike (the second
  /// flight-dump trigger besides a fast-burn SLO alert).
  std::size_t flight_shed_spike = 16;
  /// When non-empty (and window_ns > 0), the controller writes one flight
  /// dump here (crash-safe atomic write) on the first SLO fast-burn alert,
  /// shed spike, or end-of-run SLO breach.
  std::string flight_dump_path;
};

/// Aggregate SLO metrics of one controller run (all times simulated ns).
struct ServeStats {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t dispatches = 0;   ///< batches issued
  std::size_t escalated = 0;    ///< requests downgraded to kCalibrated
  double makespan_ns = 0.0;     ///< last completion - first arrival
  double throughput_rps = 0.0;  ///< completed / makespan (simulated)
  double mean_batch = 0.0;      ///< completed / dispatches

  // Latency distribution (exact, from the per-request records).
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;

  // Queue/in-flight occupancy sampled at every arrival *and* completion
  // event (arrival-only sampling biases occupancy low on bursty traffic:
  // the deep-queue intervals between bursts would never be sampled).
  double mean_queue_depth = 0.0;
  std::size_t max_queue_depth = 0;
  double mean_inflight = 0.0;
  std::size_t occupancy_samples = 0;

  // Mean latency decomposition across completions (simulated ns). The
  // issue term is the *amortized* share (issue_wait_ns / batch_size), so
  // the five means sum to mean_ns only up to the amortization gap; the
  // per-request sums are exact (Completion::decomposition_sum).
  double mean_batch_wait_ns = 0.0;
  double mean_queue_wait_ns = 0.0;
  double mean_issue_share_ns = 0.0;
  double mean_bitserial_ns = 0.0;
  double mean_reduce_ns = 0.0;

  // Per-replica traffic split and utilization (busy / makespan).
  std::vector<std::size_t> per_replica_requests;
  std::vector<double> per_replica_utilization;

  // Windowed series + SLO accounting (empty / disabled unless
  // ControllerConfig::window_ns and slo_target_ns enable them).
  std::vector<WindowStat> windows;
  SloSummary slo;
  std::size_t flight_dumps = 0;  ///< auto-dumps triggered this run
};

struct ServeReport {
  ServeStats stats;
  std::vector<Completion> completions;  ///< completed requests, by id
  std::vector<Rejection> rejections;    ///< shed requests, by id
};

class Controller {
 public:
  /// The pool must outlive the controller. Starts the process-wide
  /// Prometheus endpoint when CIM_OBS_PROM_PORT asks for it (idempotent).
  /// Throws std::invalid_argument on a zero max_batch or queue_capacity,
  /// or a window_ns that is neither 0 nor a finite >= 1 ns.
  Controller(TilePool& pool, ControllerConfig cfg);

  const ControllerConfig& config() const { return cfg_; }

  /// Runs the open-loop simulation over `requests` (any order; scheduled
  /// by arrival time) and executes every planned batch on `tp` (serial
  /// when null). Deterministic: same pool seed + same request stream give
  /// bit-identical completions and stats at any thread count. Latency
  /// histograms and queue gauges land in the obs registry
  /// (serve.latency_ns, serve.queue_depth, serve.inflight, serve.*_total)
  /// for the Prometheus / snapshot exporters.
  ServeReport run(std::span<const Request> requests,
                  util::ThreadPool* tp = nullptr);

 private:
  TilePool& pool_;
  ControllerConfig cfg_;
  std::size_t rr_next_ = 0;  ///< round-robin cursor (persists across runs)
};

/// Applies the CIM_SERVE_* environment overrides (documented in README):
/// CIM_SERVE_REQUESTS, CIM_SERVE_RATE_RPS, CIM_SERVE_PROCESS, CIM_SERVE_BATCH,
/// CIM_SERVE_DEADLINE_NS, CIM_SERVE_POLICY, CIM_SERVE_ESCALATE, plus the
/// observability knobs CIM_SERVE_WINDOW_NS, CIM_SERVE_SLO_TARGET_NS,
/// CIM_SERVE_SLO_OBJECTIVE, CIM_SERVE_FLIGHT_FILE. Unset or malformed
/// variables leave the fields untouched; a malformed number (counts are
/// decimal digits, other values finite doubles, the objective in (0, 1))
/// also prints one stderr line naming the variable.
void apply_env_overrides(TrafficConfig& traffic, ControllerConfig& ctl);

}  // namespace cim::serve
