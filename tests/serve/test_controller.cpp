/// SLO-aware batching controller: execution correctness against the ideal
/// oracle, batching/queueing semantics, admission control, tier
/// escalation, wear-aware routing, and the headline determinism contract —
/// bit-identical per-request results and aggregate latency stats at any
/// thread count (the `serve` slice of the sanitizer gate).
#include "serve/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cim::serve {
namespace {

util::Matrix test_weights(std::size_t out, std::size_t in) {
  util::Rng rng(11);
  util::Matrix w(out, in);
  for (auto& v : w.flat())
    v = static_cast<double>(static_cast<long>(rng.uniform_int(15)) - 7);
  return w;
}

TilePoolConfig pool_cfg(std::size_t replicas = 4) {
  TilePoolConfig cfg;
  cfg.replicas = replicas;
  cfg.system.tile.tile.rows = 8;
  cfg.system.tile.tile.cols = 8;
  cfg.system.tile.tile.adc_bits = 10;
  cfg.system.tile.weight_bits = 4;
  cfg.system.tile.array.model_ir_drop = false;
  cfg.seed = 77;
  return cfg;
}

TrafficConfig traffic_cfg(std::size_t n, double rate_rps) {
  TrafficConfig cfg;
  cfg.requests = n;
  cfg.rate_rps = rate_rps;
  cfg.in_dim = 8;
  cfg.seed = 5;
  return cfg;
}

TEST(Controller, IdealTierResultsMatchReferenceAndTimingsAreSane) {
  TilePool pool(test_weights(8, 8), pool_cfg(2));
  auto tcfg = traffic_cfg(120, 5.0e6);
  tcfg.tier = crossbar::FidelityTier::kIdeal;
  const auto reqs = generate(tcfg);

  Controller ctl(pool, ControllerConfig{});
  const auto report = ctl.run(reqs);

  // kIdeal advances no RNG and evolves no device state, so a fresh system
  // serving each request standalone is the exact reference for any
  // batching, routing, or dispatch order the controller chose.
  core::CimSystem ref(test_weights(8, 8), pool_cfg(2).system);

  ASSERT_EQ(report.stats.completed, reqs.size());
  EXPECT_EQ(report.stats.rejected, 0u);
  ASSERT_EQ(report.completions.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Completion& c = report.completions[i];
    EXPECT_EQ(c.id, reqs[i].id);  // sorted by id
    EXPECT_GE(c.dispatch_ns, c.arrival_ns);
    EXPECT_GT(c.done_ns, c.dispatch_ns);
    EXPECT_LT(c.replica, pool.size());
    EXPECT_EQ(c.result, ref.vmm_int(reqs[i].input, reqs[i].input_bits, nullptr,
                                    crossbar::FidelityTier::kIdeal));
    if (c.kind == RequestKind::kInference) {
      ASSERT_GE(c.label, 0);
      for (const long v : c.result) EXPECT_LE(v, c.result[c.label]);
    } else {
      EXPECT_EQ(c.label, -1);
    }
  }
}

TEST(Controller, CoalescesUnderLoadAndHonorsDeadlineWhenIdle) {
  TilePool pool(test_weights(8, 8), pool_cfg(2));
  ControllerConfig ccfg;
  ccfg.max_batch = 8;
  ccfg.batch_deadline_ns = 2000.0;

  // Overload: arrivals far faster than service -> full batches.
  {
    Controller ctl(pool, ccfg);
    const auto r = ctl.run(generate(traffic_cfg(400, 5.0e7)));
    EXPECT_GT(r.stats.mean_batch, 4.0);
    EXPECT_GT(r.stats.max_queue_depth, 0u);
  }
  // Near-idle: deadline flushes dominate, and no request queues longer
  // than the deadline (replicas are never the bottleneck here).
  {
    Controller ctl(pool, ccfg);
    const auto r = ctl.run(generate(traffic_cfg(100, 1.0e4)));
    EXPECT_LT(r.stats.mean_batch, 2.0);
    for (const Completion& c : r.completions)
      EXPECT_LE(c.queue_ns(), ccfg.batch_deadline_ns + 1e-9);
  }
}

TEST(Controller, BatchingBeatsRequestAtATimeThroughput) {
  // The bench gate in miniature: same stream, batch=16 vs batch=1, on a
  // saturating load. Issue overhead is pinned at 3x the service time so
  // the amortization ratio (o + s) / (o/B + s) is architecture-independent.
  TilePool pool_batched(test_weights(8, 8), pool_cfg(4));
  TilePool pool_single(test_weights(8, 8), pool_cfg(4));
  const double s = pool_batched.request_latency_ns(4);

  ControllerConfig ccfg;
  ccfg.issue_overhead_ns = 3.0 * s;
  ccfg.queue_capacity = 100000;
  const auto reqs = generate(traffic_cfg(2000, 1.0e15));  // saturating

  ccfg.max_batch = 16;
  Controller batched(pool_batched, ccfg);
  const auto rb = batched.run(reqs);
  ccfg.max_batch = 1;
  Controller single(pool_single, ccfg);
  const auto rs = single.run(reqs);

  ASSERT_EQ(rb.stats.completed, reqs.size());
  ASSERT_EQ(rs.stats.completed, reqs.size());
  EXPECT_GE(rb.stats.throughput_rps, 2.0 * rs.stats.throughput_rps);
  // At saturation the backlog dominates latency, so faster draining also
  // means an equal-or-better tail.
  EXPECT_LE(rb.stats.p99_ns, rs.stats.p99_ns);
}

TEST(Controller, AdmissionControlShedsBeyondCapacity) {
  TilePool pool(test_weights(8, 8), pool_cfg(2));
  ControllerConfig ccfg;
  ccfg.queue_capacity = 32;
  ccfg.max_batch = 4;
  Controller ctl(pool, ccfg);
  const auto reqs = generate(traffic_cfg(500, 1.0e15));
  const auto r = ctl.run(reqs);
  EXPECT_GT(r.stats.rejected, 0u);
  EXPECT_EQ(r.stats.completed + r.stats.rejected, r.stats.offered);
  EXPECT_LE(r.stats.max_queue_depth, ccfg.queue_capacity);
}

TEST(Controller, TierEscalationShedsLoadUnderDeepQueues) {
  TilePool pool(test_weights(8, 8), pool_cfg(2));
  ControllerConfig ccfg;
  ccfg.tier_escalation = true;
  ccfg.escalation_queue_depth = 8;
  ccfg.max_batch = 4;
  Controller ctl(pool, ccfg);
  const auto r = ctl.run(generate(traffic_cfg(300, 1.0e15)));
  EXPECT_GT(r.stats.escalated, 0u);
  bool saw_calibrated = false;
  for (const Completion& c : r.completions)
    if (c.tier == crossbar::FidelityTier::kCalibrated) saw_calibrated = true;
  EXPECT_TRUE(saw_calibrated);

  // Off by default: nothing escalates.
  TilePool pool2(test_weights(8, 8), pool_cfg(2));
  Controller plain(pool2, ControllerConfig{});
  EXPECT_EQ(plain.run(generate(traffic_cfg(300, 1.0e15))).stats.escalated, 0u);
}

TEST(Controller, WearAwareRoutingShiftsTrafficOffWornReplica) {
  obs::set_mode(obs::Mode::kHealth);
  auto run_policy = [&](RoutingPolicy policy) {
    TilePool pool(test_weights(8, 8), pool_cfg(4));
    // Pre-age replica 0: heavy recorded write wear on its arrays.
    auto& worn = pool.replica(0);
    for (std::size_t b = 0; b < worn.tile_count(); ++b)
      worn.tile(b).plus_array().health_monitor().record_write(0, 0, 100000);
    ControllerConfig ccfg;
    ccfg.routing = policy;
    Controller ctl(pool, ccfg);
    // Saturating load: backlog dominates the tiny health differences among
    // the healthy replicas, so wear-aware both sheds the worn replica AND
    // load-balances the rest (at light load it would just pin the single
    // healthiest replica — also correct, but not the property under test).
    return ctl.run(generate(traffic_cfg(400, 5.0e7))).stats;
  };

  const auto rr = run_policy(RoutingPolicy::kRoundRobin);
  const auto wear = run_policy(RoutingPolicy::kWearAware);
  obs::set_mode(obs::Mode::kOff);

  // Round-robin is health-blind: near-even split (batch granularity).
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_GT(rr.per_replica_requests[r], 70u);
    EXPECT_LT(rr.per_replica_requests[r], 130u);
  }
  // Wear-aware starves the worn replica relative to every healthy one.
  for (std::size_t r = 1; r < 4; ++r)
    EXPECT_LT(wear.per_replica_requests[0] + 50,
              wear.per_replica_requests[r]);
}

TEST(Controller, DeterministicAcrossThreadCounts) {
  auto run_with = [](util::ThreadPool* tp) {
    TilePool pool(test_weights(12, 8), pool_cfg(3));
    auto tcfg = traffic_cfg(300, 1.0e7);
    tcfg.process = ArrivalProcess::kMmpp;
    tcfg.inference_frac = 0.4;
    Controller ctl(pool, ControllerConfig{});
    return ctl.run(generate(tcfg), tp);
  };

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  const auto serial = run_with(nullptr);
  const auto t1 = run_with(&one);
  const auto t4 = run_with(&four);

  ASSERT_EQ(serial.completions.size(), t4.completions.size());
  for (std::size_t i = 0; i < serial.completions.size(); ++i) {
    const auto& a = serial.completions[i];
    for (const auto* b : {&t1.completions[i], &t4.completions[i]}) {
      EXPECT_EQ(a.id, b->id);
      EXPECT_EQ(a.result, b->result);  // bit-identical device results
      EXPECT_EQ(a.label, b->label);
      EXPECT_EQ(a.dispatch_ns, b->dispatch_ns);
      EXPECT_EQ(a.done_ns, b->done_ns);
      EXPECT_EQ(a.replica, b->replica);
      EXPECT_EQ(a.tier, b->tier);
    }
  }
  for (const auto* st : {&t1.stats, &t4.stats}) {
    EXPECT_EQ(serial.stats.p50_ns, st->p50_ns);
    EXPECT_EQ(serial.stats.p99_ns, st->p99_ns);
    EXPECT_EQ(serial.stats.p999_ns, st->p999_ns);
    EXPECT_EQ(serial.stats.throughput_rps, st->throughput_rps);
    EXPECT_EQ(serial.stats.mean_queue_depth, st->mean_queue_depth);
  }
}

TEST(Controller, ExportsSloMetricsToObsRegistry) {
  obs::reset();
  TilePool pool(test_weights(8, 8), pool_cfg(2));
  Controller ctl(pool, ControllerConfig{});
  const auto r = ctl.run(generate(traffic_cfg(200, 1.0e7)));

  const auto snap = obs::snapshot();
  std::uint64_t served = 0;
  bool saw_latency = false;
  for (const auto& [name, v] : snap.counters)
    if (name == "serve.requests") served = v;
  EXPECT_EQ(served, 200u);
  for (const auto& h : snap.histograms)
    if (h.name == "serve.latency_ns") {
      saw_latency = true;
      EXPECT_EQ(h.data.count, r.stats.completed);
      // The scrape-side estimate brackets the exact tail within a bucket.
      EXPECT_GT(h.data.p99(), 0.0);
    }
  EXPECT_TRUE(saw_latency);
  obs::reset();
}

TEST(Controller, EnvOverridesParseKnownKnobs) {
  TrafficConfig t;
  ControllerConfig c;
  ::setenv("CIM_SERVE_REQUESTS", "123", 1);
  ::setenv("CIM_SERVE_RATE_RPS", "5e6", 1);
  ::setenv("CIM_SERVE_PROCESS", "mmpp", 1);
  ::setenv("CIM_SERVE_BATCH", "32", 1);
  ::setenv("CIM_SERVE_DEADLINE_NS", "1500", 1);
  ::setenv("CIM_SERVE_POLICY", "wear", 1);
  ::setenv("CIM_SERVE_ESCALATE", "1", 1);
  apply_env_overrides(t, c);
  EXPECT_EQ(t.requests, 123u);
  EXPECT_DOUBLE_EQ(t.rate_rps, 5e6);
  EXPECT_EQ(t.process, ArrivalProcess::kMmpp);
  EXPECT_EQ(c.max_batch, 32u);
  EXPECT_DOUBLE_EQ(c.batch_deadline_ns, 1500.0);
  EXPECT_EQ(c.routing, RoutingPolicy::kWearAware);
  EXPECT_TRUE(c.tier_escalation);

  // A switch takes 0/1, off/on and false/true. Any other named value leaves
  // its field untouched and prints one stderr line naming its variable.
  for (const char* off : {"0", "off", "false"}) {
    ::setenv("CIM_SERVE_ESCALATE", off, 1);
    apply_env_overrides(t, c);
    EXPECT_FALSE(c.tier_escalation) << off;
  }
  for (const char* on : {"1", "on", "true"}) {
    ::setenv("CIM_SERVE_ESCALATE", on, 1);
    apply_env_overrides(t, c);
    EXPECT_TRUE(c.tier_escalation) << on;
  }
  const struct {
    const char* var;
    const char* good;
  } named[] = {{"CIM_SERVE_PROCESS", "mmpp"},
               {"CIM_SERVE_POLICY", "wear"},
               {"CIM_SERVE_ESCALATE", "1"}};
  for (const auto& k : named) {
    for (const char* bad : {"yes", "MMPP", "least ", "2"}) {
      ::setenv(k.var, bad, 1);
      ::testing::internal::CaptureStderr();
      apply_env_overrides(t, c);
      const std::string err = ::testing::internal::GetCapturedStderr();
      EXPECT_EQ(t.process, ArrivalProcess::kMmpp) << k.var << "=" << bad;
      EXPECT_EQ(c.routing, RoutingPolicy::kWearAware) << k.var << "=" << bad;
      EXPECT_TRUE(c.tier_escalation) << k.var << "=" << bad;
      EXPECT_NE(err.find(k.var), std::string::npos) << err;
      EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    }
    ::setenv(k.var, k.good, 1);
  }

  // Malformed values leave fields untouched, and each prints one stderr
  // line naming its variable. Counts are decimal digits only, so -1 and
  // 1e30 are malformed rather than wrapped or cast past 2^64.
  for (const char* bad : {"not-a-number", "-1", "1e30", "16.5", " 8"}) {
    ::setenv("CIM_SERVE_BATCH", bad, 1);
    ::testing::internal::CaptureStderr();
    apply_env_overrides(t, c);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(c.max_batch, 32u) << bad;
    EXPECT_NE(err.find("CIM_SERVE_BATCH"), std::string::npos) << bad;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  for (const char* bad : {"nan", "inf", "-inf", "5e6x", "1e999"}) {
    ::setenv("CIM_SERVE_RATE_RPS", bad, 1);
    apply_env_overrides(t, c);
    EXPECT_DOUBLE_EQ(t.rate_rps, 5e6) << bad;
  }

  for (const char* k :
       {"CIM_SERVE_REQUESTS", "CIM_SERVE_RATE_RPS", "CIM_SERVE_PROCESS",
        "CIM_SERVE_BATCH", "CIM_SERVE_DEADLINE_NS", "CIM_SERVE_POLICY",
        "CIM_SERVE_ESCALATE"})
    ::unsetenv(k);
}

TEST(Controller, ConstructorRejectsInvalidShapes) {
  TilePool pool(test_weights(8, 8), pool_cfg(1));
  ControllerConfig c;
  c.max_batch = 0;
  EXPECT_THROW(Controller(pool, c), std::invalid_argument);
  c = ControllerConfig{};
  c.queue_capacity = 0;
  EXPECT_THROW(Controller(pool, c), std::invalid_argument);
  // A window is 0 (off) or a finite >= 1 ns, so floor(t / window_ns) fits
  // in uint64_t for every arrival a trace may hold (<= 2^53 ns).
  for (const double w : {0.5, 1e-300, -1.0, std::nan(""), HUGE_VAL}) {
    c = ControllerConfig{};
    c.window_ns = w;
    EXPECT_THROW(Controller(pool, c), std::invalid_argument) << w;
  }
  for (const double w : {0.0, 1.0, 1e9}) {
    c = ControllerConfig{};
    c.window_ns = w;
    EXPECT_NO_THROW(Controller(pool, c)) << w;
  }
}

}  // namespace
}  // namespace cim::serve
