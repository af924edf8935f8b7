#include "serve/controller.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "obs/prom.hpp"
#include "obs/record.hpp"
#include "obs/trace_events.hpp"
#include "serve/reqlog.hpp"

namespace cim::serve {

namespace {

/// Weight (ns of equivalent backlog) of a health score of 1.0 under
/// kWearAware: how much extra queueing a dispatch will absorb before it
/// lands on the most-worn replica.
constexpr double kWearPenaltyNs = 50000.0;

int argmax_label(const std::vector<long>& logits) {
  if (logits.empty()) return -1;
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/// One flushed batch: everything phase 2 needs to execute it and the
/// request indices whose completions it fills.
struct PlannedBatch {
  std::size_t replica = 0;
  int input_bits = 4;
  crossbar::FidelityTier tier = crossbar::FidelityTier::kFull;
  std::vector<std::size_t> members;  ///< indices into the request span
};

/// Batch-coalescing queue for one (input_bits, requested tier) class.
struct PendingClass {
  std::vector<std::size_t> members;
  double oldest_arrival_ns = 0.0;
};

/// One sealed batch's controller decision, kept for the flight dump (the
/// "what did the controller do right before the breach" half of the
/// post-mortem).
struct BatchDecision {
  double seal_ns = 0.0;   ///< flush time (size or deadline trigger)
  double start_ns = 0.0;  ///< dispatch start on the chosen replica
  std::size_t replica = 0;
  std::size_t size = 0;
  int input_bits = 4;
  crossbar::FidelityTier tier = crossbar::FidelityTier::kFull;
  bool escalated = false;
};

using obs::record::json_num;

std::string flight_completion_line(const Completion& c) {
  return "{\"event\":\"done\",\"id\":" + std::to_string(c.id) +
         ",\"replica\":" + std::to_string(c.replica) +
         ",\"batch\":" + std::to_string(c.batch_size) + ",\"tier\":" +
         obs::record::json_string(crossbar::tier_name(c.tier)) +
         ",\"arrival_ns\":" + json_num(c.arrival_ns) +
         ",\"done_ns\":" + json_num(c.done_ns) +
         ",\"latency_ns\":" + json_num(c.latency_ns()) +
         ",\"queue_wait_ns\":" + json_num(c.queue_wait_ns) + "}";
}

std::string flight_rejection_line(const Rejection& r) {
  return "{\"event\":\"rejected\",\"id\":" + std::to_string(r.id) +
         ",\"arrival_ns\":" + json_num(r.arrival_ns) + "}";
}

std::string flight_batch_line(const BatchDecision& b) {
  return "{\"event\":\"batch\",\"seal_ns\":" + json_num(b.seal_ns) +
         ",\"start_ns\":" + json_num(b.start_ns) +
         ",\"replica\":" + std::to_string(b.replica) +
         ",\"size\":" + std::to_string(b.size) +
         ",\"bits\":" + std::to_string(b.input_bits) + ",\"tier\":" +
         obs::record::json_string(crossbar::tier_name(b.tier)) +
         ",\"escalated\":" + (b.escalated ? "true" : "false") + "}";
}

}  // namespace

Controller::Controller(TilePool& pool, ControllerConfig cfg)
    : pool_(pool), cfg_(cfg) {
  if (cfg_.max_batch == 0)
    throw std::invalid_argument("Controller: max_batch must be >= 1");
  if (cfg_.queue_capacity == 0)
    throw std::invalid_argument("Controller: queue_capacity must be >= 1");
  // At least 1 ns keeps floor(t / window_ns) within uint64_t for every
  // arrival parse_trace accepts (<= 2^53 ns).
  if (!(cfg_.window_ns == 0.0 ||
        (cfg_.window_ns >= 1.0 && std::isfinite(cfg_.window_ns))))
    throw std::invalid_argument(
        "Controller: window_ns must be 0 (off) or a finite >= 1 ns");
  obs::maybe_start_prometheus_from_env();
}

ServeReport Controller::run(std::span<const Request> requests,
                            util::ThreadPool* tp) {
  auto& reg = obs::Registry::global();
  auto& m_requests = reg.counter("serve.requests");
  auto& m_rejected = reg.counter("serve.rejected");
  auto& m_dispatches = reg.counter("serve.dispatches");
  auto& m_escalated = reg.counter("serve.escalated");
  auto& m_latency = reg.histogram("serve.latency_ns", latency_bounds());
  auto& m_batch_wait = reg.histogram("serve.batch_wait_ns", latency_bounds());
  auto& m_queue_wait = reg.histogram("serve.queue_wait_ns", latency_bounds());
  auto& g_queue = reg.gauge("serve.queue_depth");
  auto& g_inflight = reg.gauge("serve.inflight");

  const std::size_t n = requests.size();
  const std::size_t replicas = pool_.size();

  ServeReport report;
  report.stats.offered = n;
  report.stats.per_replica_requests.assign(replicas, 0);
  report.stats.per_replica_utilization.assign(replicas, 0.0);
  if (n == 0) return report;

  // ---- Phase 1: serial event-driven schedule (simulated time) -------------
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].arrival_ns != requests[b].arrival_ns)
      return requests[a].arrival_ns < requests[b].arrival_ns;
    return requests[a].id < requests[b].id;
  });

  // Health scores are read once per run: routing reacts to the wear the
  // previous traffic epochs produced, not to in-flight execution.
  std::vector<double> health(replicas, 0.0);
  if (cfg_.routing == RoutingPolicy::kWearAware) health = pool_.health_scores();

  std::vector<Completion> completions(n);
  std::vector<char> completed(n, 0);
  std::vector<PlannedBatch> plan;
  std::vector<double> busy_until(replicas, 0.0);
  std::vector<double> busy_ns(replicas, 0.0);

  // Coalescing state: one queue per compatibility class, deterministic
  // iteration via std::map ordering.
  std::map<std::pair<int, int>, PendingClass> pending;
  std::size_t pending_total = 0;

  // Occupancy tracking. A dispatched request still *queues* until its
  // batch's start time (it sits in the chosen replica's backlog), then is
  // *in flight* until its done time. Queue depth — the quantity admission
  // control and tier escalation react to — is therefore
  // pending (coalescing) + dispatched-but-unstarted.
  using MinHeap =
      std::priority_queue<double, std::vector<double>, std::greater<>>;
  MinHeap start_heap;  ///< batch start times of dispatched requests
  MinHeap done_heap;   ///< completion times of dispatched requests
  auto queue_depth_now = [&]() { return pending_total + start_heap.size(); };
  // Executing = started but not done (done implies started, so the heap
  // sizes difference counts exactly the in-service requests).
  auto inflight_now = [&]() { return done_heap.size() - start_heap.size(); };

  std::size_t rejected = 0;
  std::size_t escalated = 0;
  std::size_t dispatches = 0;
  double queue_depth_sum = 0.0;
  double inflight_sum = 0.0;
  std::size_t samples = 0;
  std::size_t max_queue_depth = 0;

  auto sample_occupancy = [&]() {
    const std::size_t depth = queue_depth_now();
    queue_depth_sum += static_cast<double>(depth);
    inflight_sum += static_cast<double>(inflight_now());
    max_queue_depth = std::max(max_queue_depth, depth);
    ++samples;
  };
  // Advances the occupancy clock to `now`, taking a sample at every
  // completion event on the way: arrival-only sampling never observes the
  // drain intervals between bursts and biases MMPP occupancy low.
  auto advance_to = [&](double now) {
    while (!done_heap.empty() && done_heap.top() <= now) {
      const double t = done_heap.top();
      while (!start_heap.empty() && start_heap.top() <= t) start_heap.pop();
      done_heap.pop();
      sample_occupancy();
    }
    while (!start_heap.empty() && start_heap.top() <= now) start_heap.pop();
  };

  struct ServiceParts {
    bool set = false;
    core::CimSystem::RequestLatencyParts parts;
    double total_ns = 0.0;
  };
  std::vector<ServiceParts> service_by_bits(17);
  auto service_parts = [&](int bits) -> const ServiceParts& {
    ServiceParts& s = service_by_bits.at(static_cast<std::size_t>(bits));
    if (!s.set) {
      s.parts = pool_.request_latency_parts(bits);
      s.total_ns = s.parts.bitserial_ns + s.parts.reduce_ns;
      s.set = true;
    }
    return s;
  };

  auto route = [&](double now) -> std::size_t {
    switch (cfg_.routing) {
      case RoutingPolicy::kRoundRobin: {
        const std::size_t r = rr_next_ % replicas;
        ++rr_next_;
        return r;
      }
      case RoutingPolicy::kLeastLoaded:
      case RoutingPolicy::kWearAware: {
        std::size_t best = 0;
        double best_cost = 0.0;
        for (std::size_t r = 0; r < replicas; ++r) {
          double cost = std::max(busy_until[r] - now, 0.0);
          if (cfg_.routing == RoutingPolicy::kWearAware)
            cost += kWearPenaltyNs * health[r];
          if (r == 0 || cost < best_cost) {
            best = r;
            best_cost = cost;
          }
        }
        return best;
      }
    }
    return 0;
  };

  // Request-lifecycle observability state (all cheap no-ops when off).
  const bool windows_on = cfg_.window_ns > 0.0;
  // Every flight-dump trigger is a window or SLO event.
  const bool flight_on = windows_on && !cfg_.flight_dump_path.empty();
  const bool trace_on = obs::trace_enabled();
  std::vector<BatchDecision> batch_log;
  std::vector<Rejection> rejections;

  auto flush = [&](std::map<std::pair<int, int>, PendingClass>::iterator it,
                   double now) {
    PendingClass& cls = it->second;
    const int bits = it->first.first;
    auto tier = static_cast<crossbar::FidelityTier>(it->first.second);
    bool batch_escalated = false;

    // Load shedding: under a deep queue, downgrade full-fidelity batches to
    // the calibrated tier (PR 7's cheaper read path).
    if (cfg_.tier_escalation && tier == crossbar::FidelityTier::kFull &&
        queue_depth_now() >= cfg_.escalation_queue_depth) {
      tier = crossbar::FidelityTier::kCalibrated;
      escalated += cls.members.size();
      batch_escalated = true;
    }

    const std::size_t replica = route(now);
    const double start = std::max(now, busy_until[replica]);
    const ServiceParts& sp = service_parts(bits);
    const double s = sp.total_ns;
    const std::size_t b = cls.members.size();

    for (std::size_t j = 0; j < b; ++j) {
      const std::size_t idx = cls.members[j];
      Completion& c = completions[idx];
      c.id = requests[idx].id;
      c.kind = requests[idx].kind;
      c.arrival_ns = requests[idx].arrival_ns;
      c.dispatch_ns = start;
      c.replica = replica;
      c.batch_size = b;
      c.tier = tier;
      c.escalated = batch_escalated;
      // Exact lifecycle decomposition. Requests in a coalesced batch still
      // execute bit-serially one after another; the win is paying the
      // issue overhead once. done_ns is *constructed* as arrival +
      // decomposition_sum() (same left-to-right order), so the components
      // sum to the end-to-end latency bitwise.
      c.batch_wait_ns = now - c.arrival_ns;
      c.queue_wait_ns = (start - now) + static_cast<double>(j) * s;
      c.issue_wait_ns = cfg_.issue_overhead_ns;
      c.bitserial_ns = sp.parts.bitserial_ns;
      c.reduce_ns = sp.parts.reduce_ns;
      c.done_ns = c.arrival_ns + c.decomposition_sum();
      completed[idx] = 1;
      start_heap.push(start);
      done_heap.push(c.done_ns);

      if (trace_on) {
        // Simulated-time lanes (pid 2): the coalesce/backlog wait on lane 0,
        // the request's own service slice on its replica's lane, joined by
        // a flow arrow keyed on the request id (the trace id).
        obs::detail::TraceEvent wait;
        wait.name = "req.wait";
        wait.ph = 'X';
        wait.pid = 2;
        wait.tid = 0;
        wait.ts_ns = static_cast<std::uint64_t>(c.arrival_ns);
        wait.dur_ns = static_cast<std::uint64_t>(
            (start + cfg_.issue_overhead_ns + static_cast<double>(j) * s) -
            c.arrival_ns);
        obs::detail::record_trace_event(wait, /*keep_tid=*/true);

        obs::detail::TraceEvent exec;
        exec.name = "req.exec";
        exec.ph = 'X';
        exec.pid = 2;
        exec.tid = 1 + static_cast<std::uint32_t>(replica);
        exec.ts_ns = static_cast<std::uint64_t>(
            start + cfg_.issue_overhead_ns + static_cast<double>(j) * s);
        exec.dur_ns = static_cast<std::uint64_t>(s);
        obs::detail::record_trace_event(exec, /*keep_tid=*/true);

        obs::detail::TraceEvent fs = wait;
        fs.name = "req.flow";
        fs.ph = 's';
        fs.flow_id = c.id;
        fs.dur_ns = 0;
        obs::detail::record_trace_event(fs, /*keep_tid=*/true);
        obs::detail::TraceEvent ff = exec;
        ff.name = "req.flow";
        ff.ph = 'f';
        ff.flow_id = c.id;
        ff.dur_ns = 0;
        obs::detail::record_trace_event(ff, /*keep_tid=*/true);
      }
    }
    if (flight_on || trace_on) {
      BatchDecision bd;
      bd.seal_ns = now;
      bd.start_ns = start;
      bd.replica = replica;
      bd.size = b;
      bd.input_bits = bits;
      bd.tier = tier;
      bd.escalated = batch_escalated;
      if (flight_on) batch_log.push_back(bd);
      if (trace_on) {
        obs::detail::TraceEvent batch_ev;
        batch_ev.name = "serve.batch";
        batch_ev.ph = 'X';
        batch_ev.pid = 2;
        batch_ev.tid = 1 + static_cast<std::uint32_t>(replica);
        batch_ev.ts_ns = static_cast<std::uint64_t>(start);
        batch_ev.dur_ns = static_cast<std::uint64_t>(
            cfg_.issue_overhead_ns + static_cast<double>(b) * s);
        obs::detail::record_trace_event(batch_ev, /*keep_tid=*/true);
      }
    }

    const double busy = cfg_.issue_overhead_ns + static_cast<double>(b) * s;
    busy_until[replica] = start + busy;
    busy_ns[replica] += busy;
    report.stats.per_replica_requests[replica] += b;

    PlannedBatch pb;
    pb.replica = replica;
    pb.input_bits = bits;
    pb.tier = tier;
    pb.members = std::move(cls.members);
    plan.push_back(std::move(pb));

    pending_total -= b;
    ++dispatches;
    pending.erase(it);
  };

  // Earliest deadline across the pending classes (map scan: the class count
  // is tiny — distinct (bits, tier) pairs in flight).
  auto next_deadline = [&]() {
    auto best = pending.end();
    for (auto it = pending.begin(); it != pending.end(); ++it)
      if (best == pending.end() ||
          it->second.oldest_arrival_ns < best->second.oldest_arrival_ns)
        best = it;
    return best;
  };

  for (const std::size_t idx : order) {
    const Request& req = requests[idx];
    const double now = req.arrival_ns;

    // Deadline flushes that fire before this arrival.
    for (auto it = next_deadline(); it != pending.end(); it = next_deadline()) {
      const double deadline = it->second.oldest_arrival_ns +
                              cfg_.batch_deadline_ns;
      if (deadline > now) break;
      advance_to(deadline);
      flush(it, deadline);
    }
    advance_to(now);

    if (queue_depth_now() >= cfg_.queue_capacity) {
      ++rejected;
      rejections.push_back({req.id, req.kind, now});
    } else {
      const auto key = std::make_pair(req.input_bits,
                                      static_cast<int>(req.tier));
      auto [it, inserted] = pending.try_emplace(key);
      if (inserted) it->second.oldest_arrival_ns = now;
      it->second.members.push_back(idx);
      ++pending_total;
      if (it->second.members.size() >= cfg_.max_batch) flush(it, now);
    }

    sample_occupancy();
    g_queue.set(static_cast<double>(queue_depth_now()));
    g_inflight.set(static_cast<double>(inflight_now()));
  }

  // Drain: remaining classes flush at their deadlines (the controller never
  // learns the stream ended — open loop), then the occupancy clock runs to
  // the last completion so the tail drain is sampled too.
  for (auto it = next_deadline(); it != pending.end(); it = next_deadline()) {
    const double deadline =
        it->second.oldest_arrival_ns + cfg_.batch_deadline_ns;
    advance_to(deadline);
    flush(it, deadline);
  }
  advance_to(std::numeric_limits<double>::infinity());
  g_queue.set(0.0);
  g_inflight.set(0.0);

  // ---- Phase 2: execute the plan, one lane per replica --------------------
  // Per-replica batch lists preserve flush order, so each replica's device
  // state (noise streams, disturb, caches) evolves exactly as the schedule
  // says — independent of how many lanes actually run.
  std::vector<std::vector<std::size_t>> by_replica(replicas);
  for (std::size_t p = 0; p < plan.size(); ++p)
    by_replica[plan[p].replica].push_back(p);

  auto execute_replica = [&](std::size_t r) {
    core::CimSystem& sys = pool_.replica(r);
    for (const std::size_t p : by_replica[r]) {
      const PlannedBatch& pb = plan[p];
      for (const std::size_t idx : pb.members) {
        Completion& c = completions[idx];
        c.result =
            sys.vmm_int(requests[idx].input, pb.input_bits, nullptr, pb.tier);
        if (c.kind == RequestKind::kInference) c.label = argmax_label(c.result);
      }
    }
  };
  if (tp != nullptr) {
    tp->parallel_for(0, replicas, execute_replica);
  } else {
    for (std::size_t r = 0; r < replicas; ++r) execute_replica(r);
  }

  // ---- Aggregate SLO metrics ----------------------------------------------
  ServeStats& st = report.stats;
  st.rejected = rejected;
  st.dispatches = dispatches;
  st.escalated = escalated;

  report.completions.reserve(n - rejected);
  for (std::size_t i = 0; i < n; ++i)
    if (completed[i] != 0) report.completions.push_back(std::move(completions[i]));
  std::sort(report.completions.begin(), report.completions.end(),
            [](const Completion& a, const Completion& b) { return a.id < b.id; });
  st.completed = report.completions.size();
  report.rejections = std::move(rejections);
  std::sort(report.rejections.begin(), report.rejections.end(),
            [](const Rejection& a, const Rejection& b) { return a.id < b.id; });

  if (st.completed > 0) {
    double first_arrival = report.completions.front().arrival_ns;
    double last_done = 0.0;
    std::vector<double> lat;
    lat.reserve(st.completed);
    double lat_sum = 0.0;
    double batch_wait_sum = 0.0;
    double queue_wait_sum = 0.0;
    double issue_share_sum = 0.0;
    double bitserial_sum = 0.0;
    double reduce_sum = 0.0;
    for (const Completion& c : report.completions) {
      first_arrival = std::min(first_arrival, c.arrival_ns);
      last_done = std::max(last_done, c.done_ns);
      const double l = c.latency_ns();
      lat.push_back(l);
      lat_sum += l;
      m_latency.observe(l);
      m_batch_wait.observe(c.batch_wait_ns);
      m_queue_wait.observe(c.queue_wait_ns);
      batch_wait_sum += c.batch_wait_ns;
      queue_wait_sum += c.queue_wait_ns;
      issue_share_sum +=
          c.issue_wait_ns / static_cast<double>(c.batch_size);
      bitserial_sum += c.bitserial_ns;
      reduce_sum += c.reduce_ns;
    }
    std::sort(lat.begin(), lat.end());
    st.makespan_ns = last_done - first_arrival;
    // A <= 1-request run has no meaningful makespan: one completion makes
    // throughput 1/latency and utilization busy/latency — nonsense rates
    // a downstream gate would trip over. Report 0 instead.
    const bool rate_defined = st.completed > 1 && st.makespan_ns > 0.0;
    st.throughput_rps = rate_defined ? static_cast<double>(st.completed) /
                                           (st.makespan_ns * 1e-9)
                                     : 0.0;
    st.mean_batch = dispatches > 0
                        ? static_cast<double>(st.completed) /
                              static_cast<double>(dispatches)
                        : 0.0;
    const double inv = 1.0 / static_cast<double>(st.completed);
    st.mean_ns = lat_sum * inv;
    st.mean_batch_wait_ns = batch_wait_sum * inv;
    st.mean_queue_wait_ns = queue_wait_sum * inv;
    st.mean_issue_share_ns = issue_share_sum * inv;
    st.mean_bitserial_ns = bitserial_sum * inv;
    st.mean_reduce_ns = reduce_sum * inv;
    st.p50_ns = exact_quantile(lat, 0.50);
    st.p99_ns = exact_quantile(lat, 0.99);
    st.p999_ns = exact_quantile(lat, 0.999);
    st.max_ns = lat.back();
    for (std::size_t r = 0; r < replicas; ++r)
      st.per_replica_utilization[r] =
          rate_defined ? busy_ns[r] / st.makespan_ns : 0.0;
  }
  if (samples > 0) {
    st.mean_queue_depth = queue_depth_sum / static_cast<double>(samples);
    st.mean_inflight = inflight_sum / static_cast<double>(samples);
  }
  st.max_queue_depth = max_queue_depth;
  st.occupancy_samples = samples;

  // ---- Windowed series, SLO accounting, flight dump -----------------------
  if (windows_on) {
    // Replay the run's lifecycle events in simulated-time order: batch
    // decisions at seal time, rejections at arrival time, completions at
    // done time. A pure post-pass over the serial schedule, so the series
    // (and any flight dump) is bit-identical at any CIM_THREADS.
    struct Event {
      double t_ns;
      int type;  ///< 0 batch, 1 rejection, 2 completion (tie order)
      std::size_t idx;
    };
    std::vector<Event> events;
    events.reserve(batch_log.size() + report.rejections.size() +
                   report.completions.size());
    for (std::size_t i = 0; i < batch_log.size(); ++i)
      events.push_back({batch_log[i].seal_ns, 0, i});
    for (std::size_t i = 0; i < report.rejections.size(); ++i)
      events.push_back({report.rejections[i].arrival_ns, 1, i});
    for (std::size_t i = 0; i < report.completions.size(); ++i)
      events.push_back({report.completions[i].done_ns, 2, i});
    std::sort(events.begin(), events.end(), [&](const Event& a,
                                                const Event& b) {
      if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
      if (a.type != b.type) return a.type < b.type;
      return a.idx < b.idx;
    });

    // The first trigger wins, one post-mortem per run: a fast-burn onset
    // (it fires at the event that closes the burning window), a shed spike
    // (`flight_shed_spike` rejections in one window), or an SLO breach
    // found only at the end.
    WindowSeries series(cfg_.window_ns, cfg_.slo_target_ns,
                        cfg_.slo_objective);
    const char* dump_reason = nullptr;
    double dump_t_ns = 0.0;
    std::size_t dump_end = 0;  ///< the dump holds the events before this
    auto trigger = [&](const char* reason, double t_ns, std::size_t end) {
      if (!flight_on || dump_reason != nullptr) return;
      dump_reason = reason;
      dump_t_ns = t_ns;
      dump_end = end;
    };
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.type == 1) {
        series.reject(e.t_ns);
        if (series.newest_rejected() == cfg_.flight_shed_spike)
          trigger("shed-spike", e.t_ns, i + 1);
      } else if (e.type == 2) {
        series.complete(e.t_ns, report.completions[e.idx].latency_ns());
      }
      if (series.slo().fast_alerts > 0)
        trigger("slo-fast-burn", series.slo().first_breach_ns, i + 1);
    }
    series.finish();
    st.windows = series.windows();
    st.slo = series.slo();
    if (st.slo.fast_alerts > 0)
      trigger("slo-fast-burn", st.slo.first_breach_ns, events.size());
    if (st.slo.breached)
      trigger("slo-breach", st.slo.first_breach_ns, events.size());

    // A flight dump renders only the flight_capacity events ending at its
    // trigger, oldest first, and is written crash-safe.
    if (dump_reason != nullptr) {
      const std::size_t keep = std::max<std::size_t>(cfg_.flight_capacity, 1);
      const std::size_t begin = dump_end - std::min(dump_end, keep);
      const bool ok = obs::write_file_atomic(
          cfg_.flight_dump_path, [&](std::ostream& os) {
            os << "{\"format\":\"cim-flight-v1\",\"reason\":"
               << obs::record::json_string(dump_reason)
               << ",\"records\":" << dump_end - begin
               << ",\"dropped\":" << begin << ",\"t_ns\":"
               << obs::record::json_string(obs::record::g17(dump_t_ns))
               << "}\n";
            for (std::size_t i = begin; i < dump_end; ++i) {
              const Event& e = events[i];
              if (e.type == 0)
                os << flight_batch_line(batch_log[e.idx]);
              else if (e.type == 1)
                os << flight_rejection_line(report.rejections[e.idx]);
              else
                os << flight_completion_line(report.completions[e.idx]);
              os << '\n';
            }
          });
      if (ok) ++st.flight_dumps;
    }

    // Surface the run's windowed/SLO state through the registry so the
    // Prometheus/snapshot exporters carry it without serve-specific wiring.
    if (!st.windows.empty()) {
      const WindowStat& lastw = st.windows.back();
      reg.gauge("serve.window.p50_ns").set(lastw.p50_ns);
      reg.gauge("serve.window.p99_ns").set(lastw.p99_ns);
      reg.gauge("serve.window.p999_ns").set(lastw.p999_ns);
      reg.gauge("serve.window.rate_rps").set(lastw.rate_rps);
    }
    if (st.slo.enabled) {
      reg.counter("serve.slo.good").add(st.slo.good);
      reg.counter("serve.slo.bad").add(st.slo.bad);
      reg.counter("serve.slo.fast_alerts").add(st.slo.fast_alerts);
      reg.counter("serve.slo.slow_alerts").add(st.slo.slow_alerts);
      reg.gauge("serve.slo.budget_consumed").set(st.slo.budget_consumed);
    }
    reg.counter("serve.flight.dumps").add(st.flight_dumps);
  }

  m_requests.add(n);
  m_rejected.add(rejected);
  m_dispatches.add(dispatches);
  m_escalated.add(escalated);
  export_reqlog_if_requested(report);
  return report;
}

void apply_env_overrides(TrafficConfig& traffic, ControllerConfig& ctl) {
  const auto u64 = [](const char* name) {
    return obs::record::env_u64(name, std::getenv(name));
  };
  const auto f64 = [](const char* name) {
    return obs::record::env_f64(name, std::getenv(name));
  };
  const auto choice = [](const char* name,
                         std::initializer_list<std::string_view> names) {
    return obs::record::env_choice(name, std::getenv(name), names);
  };
  if (const auto v = u64("CIM_SERVE_REQUESTS")) traffic.requests = *v;
  if (const auto v = f64("CIM_SERVE_RATE_RPS")) traffic.rate_rps = *v;
  if (const auto v = choice("CIM_SERVE_PROCESS", {"poisson", "mmpp"}))
    traffic.process =
        std::array{ArrivalProcess::kPoisson, ArrivalProcess::kMmpp}[*v];
  if (const auto v = u64("CIM_SERVE_BATCH")) ctl.max_batch = *v;
  if (const auto v = f64("CIM_SERVE_DEADLINE_NS")) ctl.batch_deadline_ns = *v;
  if (const auto v = choice("CIM_SERVE_POLICY", {"rr", "least", "wear"}))
    ctl.routing = std::array{RoutingPolicy::kRoundRobin,
                             RoutingPolicy::kLeastLoaded,
                             RoutingPolicy::kWearAware}[*v];
  if (const auto v = obs::record::env_switch(
          "CIM_SERVE_ESCALATE", std::getenv("CIM_SERVE_ESCALATE")))
    ctl.tier_escalation = *v;
  if (const auto v = f64("CIM_SERVE_WINDOW_NS")) ctl.window_ns = *v;
  if (const auto v = f64("CIM_SERVE_SLO_TARGET_NS")) ctl.slo_target_ns = *v;
  if (const auto v = f64("CIM_SERVE_SLO_OBJECTIVE")) {
    if (*v > 0.0 && *v < 1.0)
      ctl.slo_objective = *v;
    else
      std::fprintf(stderr,
                   "CIM_SERVE_SLO_OBJECTIVE: ignoring %g outside (0, 1)\n",
                   *v);
  }
  if (const char* v = std::getenv("CIM_SERVE_FLIGHT_FILE");
      v != nullptr && *v != '\0')
    ctl.flight_dump_path = v;
}

}  // namespace cim::serve
