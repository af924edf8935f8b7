/// Request-lifecycle observability (`ctest -L timeline`): the bitwise
/// latency-decomposition identity on every completion, the windowed
/// SLO series and its thread-count determinism contract, flight dumps on
/// forced SLO breaches and shed spikes (and their slice, header and
/// failure paths), Chrome-trace flow events, and the occupancy/throughput
/// edge-case guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "serve/controller.hpp"
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

TilePoolConfig pool_cfg(std::size_t replicas = 2) {
  TilePoolConfig cfg;
  cfg.replicas = replicas;
  cfg.system.tile.tile.rows = 8;
  cfg.system.tile.tile.cols = 8;
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

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// The tentpole acceptance gate: on every completion the five components
// sum to the end-to-end latency *bitwise* (done_ns is constructed as
// arrival + the same left-to-right sum), and the service components are
// exactly the pool's closed-form split.
TEST(Timeline, DecompositionSumsToLatencyBitwise) {
  TilePool pool(test_weights(8, 8), pool_cfg(3));
  ControllerConfig ccfg;
  ccfg.tier_escalation = true;
  ccfg.escalation_queue_depth = 8;
  auto tcfg = traffic_cfg(400, 2.0e7);
  tcfg.process = ArrivalProcess::kMmpp;
  tcfg.inference_frac = 0.4;
  Controller ctl(pool, ccfg);
  const auto r = ctl.run(generate(tcfg));

  ASSERT_GT(r.completions.size(), 0u);
  for (const Completion& c : r.completions) {
    EXPECT_EQ(c.arrival_ns + c.decomposition_sum(), c.done_ns) << c.id;
    EXPECT_GE(c.batch_wait_ns, 0.0);
    EXPECT_GE(c.queue_wait_ns, 0.0);
    EXPECT_EQ(c.issue_wait_ns, ccfg.issue_overhead_ns);
    // Service split is the closed-form system decomposition, bitwise.
    const auto parts = pool.request_latency_parts(4);
    EXPECT_EQ(c.bitserial_ns, parts.bitserial_ns);
    EXPECT_EQ(c.reduce_ns, parts.reduce_ns);
  }
  // The aggregate means decompose the mean latency the same way (issue is
  // amortized per batch in the aggregate, so the identity is <=).
  EXPECT_GT(r.stats.mean_queue_wait_ns + r.stats.mean_batch_wait_ns, 0.0);
  EXPECT_LE(r.stats.mean_batch_wait_ns + r.stats.mean_queue_wait_ns +
                r.stats.mean_issue_share_ns + r.stats.mean_bitserial_ns +
                r.stats.mean_reduce_ns,
            r.stats.mean_ns + 1e-6);
}

// Satellite: a <= 1-request run must report zero throughput/utilization
// (one completion would make throughput 1/latency — a nonsense rate).
TEST(Timeline, SingleRequestRunReportsZeroRates) {
  TilePool pool(test_weights(8, 8), pool_cfg());
  Controller ctl(pool, ControllerConfig{});
  const auto r = ctl.run(generate(traffic_cfg(1, 1.0e6)));
  ASSERT_EQ(r.stats.completed, 1u);
  EXPECT_EQ(r.stats.throughput_rps, 0.0);
  for (const double u : r.stats.per_replica_utilization) EXPECT_EQ(u, 0.0);
  EXPECT_GT(r.stats.mean_ns, 0.0);  // latency itself is still real

  // Two completions span a real makespan: rates come back.
  TilePool pool2(test_weights(8, 8), pool_cfg());
  Controller ctl2(pool2, ControllerConfig{});
  const auto r2 = ctl2.run(generate(traffic_cfg(2, 1.0e6)));
  ASSERT_EQ(r2.stats.completed, 2u);
  EXPECT_GT(r2.stats.throughput_rps, 0.0);
}

// Satellite: occupancy is sampled at completion events too. Two spaced
// requests with max_batch=1: at each arrival the request is dispatched
// but unstarted (queue depth 1), at each completion the system is empty
// (depth 0) -> samples [1, 0, 1, 0], mean 0.5, hand-computed.
TEST(Timeline, OccupancySamplesCompletionEventsHandComputed) {
  TilePool pool(test_weights(8, 8), pool_cfg(1));
  ControllerConfig ccfg;
  ccfg.max_batch = 1;
  const double service = pool.request_latency_ns(4);

  std::vector<Request> reqs(2);
  for (std::size_t i = 0; i < 2; ++i) {
    reqs[i].id = i;
    reqs[i].kind = RequestKind::kVmm;
    // Far enough apart that the first fully completes before the second
    // arrives (issue + service plus slack).
    reqs[i].arrival_ns =
        static_cast<double>(i) * (ccfg.issue_overhead_ns + service + 1e6);
    reqs[i].input_bits = 4;
    reqs[i].tier = crossbar::FidelityTier::kIdeal;
    reqs[i].input.assign(8, 1);
  }

  Controller ctl(pool, ccfg);
  const auto r = ctl.run(reqs);
  ASSERT_EQ(r.stats.completed, 2u);
  // 2 arrival samples + 2 completion samples.
  EXPECT_EQ(r.stats.occupancy_samples, 4u);
  EXPECT_DOUBLE_EQ(r.stats.mean_queue_depth, 0.5);
  EXPECT_DOUBLE_EQ(r.stats.mean_inflight, 0.0);
  EXPECT_EQ(r.stats.max_queue_depth, 1u);
}

ControllerConfig windowed_cfg() {
  ControllerConfig ccfg;
  ccfg.window_ns = 20000.0;
  ccfg.slo_target_ns = 50000.0;
  ccfg.slo_objective = 0.99;
  return ccfg;
}

TEST(Timeline, WindowedSeriesPopulatesRows) {
  TilePool pool(test_weights(8, 8), pool_cfg());
  Controller ctl(pool, windowed_cfg());
  const auto r = ctl.run(generate(traffic_cfg(300, 1.0e7)));

  ASSERT_GT(r.stats.windows.size(), 1u);
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < r.stats.windows.size(); ++i) {
    const WindowStat& w = r.stats.windows[i];
    if (i > 0) {
      EXPECT_GT(w.index, r.stats.windows[i - 1].index);
    }
    EXPECT_DOUBLE_EQ(w.start_ns, static_cast<double>(w.index) * 20000.0);
    completed += w.completed;
    if (w.completed > 0) {
      EXPECT_GT(w.rate_rps, 0.0);
      EXPECT_GT(w.p99_ns, 0.0);
      EXPECT_GE(w.p99_ns, w.p50_ns);
    }
  }
  // Every completion lands in exactly one window.
  EXPECT_EQ(completed, r.stats.completed);
  EXPECT_TRUE(r.stats.slo.enabled);
  EXPECT_EQ(r.stats.slo.good + r.stats.slo.bad,
            static_cast<std::uint64_t>(r.stats.completed));
}

// The determinism contract extended to the windowed series: the per-window
// tail latencies, burn rates, and the SLO summary are bit-identical at any
// thread count (they are a pure post-pass over the serial schedule).
TEST(Timeline, WindowedSeriesDeterministicAcrossThreadCounts) {
  auto run_with = [](util::ThreadPool* tp) {
    TilePool pool(test_weights(12, 8), pool_cfg(3));
    auto tcfg = traffic_cfg(300, 1.0e7);
    tcfg.process = ArrivalProcess::kMmpp;
    tcfg.inference_frac = 0.4;
    Controller ctl(pool, windowed_cfg());
    return ctl.run(generate(tcfg), tp).stats;
  };

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  const auto serial = run_with(nullptr);
  const auto t1 = run_with(&one);
  const auto t4 = run_with(&four);

  for (const auto* st : {&t1, &t4}) {
    ASSERT_EQ(serial.windows.size(), st->windows.size());
    for (std::size_t i = 0; i < serial.windows.size(); ++i) {
      const WindowStat& a = serial.windows[i];
      const WindowStat& b = st->windows[i];
      EXPECT_EQ(a.index, b.index);
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.rejected, b.rejected);
      EXPECT_EQ(a.rate_rps, b.rate_rps);  // bitwise
      EXPECT_EQ(a.p50_ns, b.p50_ns);
      EXPECT_EQ(a.p99_ns, b.p99_ns);
      EXPECT_EQ(a.p999_ns, b.p999_ns);
      EXPECT_EQ(a.slo_violations, b.slo_violations);
      EXPECT_EQ(a.burn_rate, b.burn_rate);
    }
    EXPECT_EQ(serial.slo.good, st->slo.good);
    EXPECT_EQ(serial.slo.bad, st->slo.bad);
    EXPECT_EQ(serial.slo.budget_consumed, st->slo.budget_consumed);
    EXPECT_EQ(serial.slo.fast_alerts, st->slo.fast_alerts);
    EXPECT_EQ(serial.slo.breached, st->slo.breached);
  }
}

// The ISSUE acceptance test: force an SLO breach and require the flight
// recorder to land a post-mortem dump naming an SLO trigger.
TEST(Timeline, FlightRecorderDumpsOnForcedSloBreach) {
  const std::string path =
      std::string(::testing::TempDir()) + "flight_slo_breach.json";
  std::remove(path.c_str());

  TilePool pool(test_weights(8, 8), pool_cfg());
  ControllerConfig ccfg;
  ccfg.window_ns = 20000.0;
  ccfg.slo_target_ns = 1.0;  // impossible target: every completion violates
  ccfg.slo_objective = 0.99;
  ccfg.flight_dump_path = path;
  ccfg.flight_capacity = 32;
  Controller ctl(pool, ccfg);
  const auto r = ctl.run(generate(traffic_cfg(200, 1.0e7)));

  EXPECT_TRUE(r.stats.slo.breached);
  EXPECT_EQ(r.stats.flight_dumps, 1u);
  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << "missing flight dump " << path;
  const std::string header = dump.substr(0, dump.find('\n'));
  EXPECT_NE(header.find("\"format\":\"cim-flight-v1\""), std::string::npos);
  EXPECT_NE(header.find("\"reason\":\"slo-"), std::string::npos);
  // The ring held actual lifecycle records leading up to the breach.
  EXPECT_NE(dump.find("\"event\":\"done\""), std::string::npos);
  EXPECT_NE(dump.find("\"event\":\"batch\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Timeline, FlightRecorderDumpsOnShedSpike) {
  const std::string path =
      std::string(::testing::TempDir()) + "flight_shed_spike.json";
  std::remove(path.c_str());

  TilePool pool(test_weights(8, 8), pool_cfg());
  ControllerConfig ccfg;
  ccfg.window_ns = 1.0e9;  // one wide window: all rejections land together
  ccfg.queue_capacity = 16;
  ccfg.flight_dump_path = path;
  ccfg.flight_shed_spike = 8;
  Controller ctl(pool, ccfg);
  const auto r = ctl.run(generate(traffic_cfg(300, 1.0e15)));  // saturating

  ASSERT_GE(r.stats.rejected, 8u);
  EXPECT_EQ(r.stats.flight_dumps, 1u);
  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\":\"shed-spike\""), std::string::npos);
  EXPECT_NE(dump.find("\"event\":\"rejected\""), std::string::npos);
  std::remove(path.c_str());
}

// The flight dump through the controller. With objective 0.5 and an
// impossible target a window burns at most 2x, so no fast alert fires and
// the breach is found at the end of the run: the dump holds the run's last
// `flight_capacity` lifecycle events.
ControllerConfig end_breach_cfg(const std::string& path,
                                std::size_t capacity) {
  ControllerConfig ccfg;
  ccfg.window_ns = 20000.0;
  ccfg.slo_target_ns = 1.0;
  ccfg.slo_objective = 0.5;
  ccfg.flight_dump_path = path;
  ccfg.flight_capacity = capacity;
  return ccfg;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// The ids of the `k` latest completions, oldest first.
std::vector<std::uint64_t> last_done_ids(const ServeReport& r, std::size_t k) {
  std::vector<Completion> done = r.completions;
  std::sort(done.begin(), done.end(), [](const auto& a, const auto& b) {
    return a.done_ns < b.done_ns;
  });
  std::vector<std::uint64_t> ids;
  for (std::size_t i = done.size() - k; i < done.size(); ++i)
    ids.push_back(done[i].id);
  return ids;
}

TEST(FlightRecorder, DumpKeepsLastNOldestFirst) {
  const auto dump_lines = [](std::size_t capacity) {
    const std::string path =
        std::string(::testing::TempDir()) + "flight_last_n.json";
    std::remove(path.c_str());
    TilePool pool(test_weights(8, 8), pool_cfg());
    Controller ctl(pool, end_breach_cfg(path, capacity));
    const auto r = ctl.run(generate(traffic_cfg(50, 1.0e7)));
    EXPECT_EQ(r.stats.flight_dumps, 1u);
    auto lines = lines_of(slurp(path));
    std::remove(path.c_str());
    return std::make_pair(r, lines);
  };
  // Room for every batch and completion: nothing dropped, and the run
  // ends on its latest completion.
  const auto [r, all] = dump_lines(1000);
  const std::size_t events = r.stats.dispatches + r.stats.completed;
  ASSERT_EQ(all.size(), events + 1);
  EXPECT_NE(all[0].find("\"dropped\":0,"), std::string::npos) << all[0];
  EXPECT_EQ(all.back().find("{\"event\":\"done\",\"id\":" +
                            std::to_string(last_done_ids(r, 1)[0]) + ","),
            0u);

  // A capacity of 3 keeps exactly the last three of those, oldest first.
  const auto [r3, last3] = dump_lines(3);
  ASSERT_EQ(last3.size(), 4u);
  EXPECT_NE(last3[0].find("\"records\":3,\"dropped\":" +
                          std::to_string(events - 3) + ","),
            std::string::npos)
      << last3[0];
  for (std::size_t i = 1; i <= 3; ++i)
    EXPECT_EQ(last3[i], all[events - 3 + i]);
}

TEST(FlightRecorder, ZeroCapacityClampsToOne) {
  const std::string path =
      std::string(::testing::TempDir()) + "flight_zero.json";
  std::remove(path.c_str());
  TilePool pool(test_weights(8, 8), pool_cfg());
  Controller ctl(pool, end_breach_cfg(path, 0));
  const auto r = ctl.run(generate(traffic_cfg(50, 1.0e7)));

  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"records\":1,"), std::string::npos);
  EXPECT_EQ(lines[1].find("{\"event\":\"done\",\"id\":" +
                          std::to_string(last_done_ids(r, 1)[0]) + ","),
            0u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpWritesHeaderThenRecords) {
  const std::string path =
      std::string(::testing::TempDir()) + "flight_dump.json";
  std::remove(path.c_str());
  TilePool pool(test_weights(8, 8), pool_cfg());
  Controller ctl(pool, end_breach_cfg(path, 8));
  const auto r = ctl.run(generate(traffic_cfg(50, 1.0e7)));
  ASSERT_TRUE(r.stats.slo.breached);
  ASSERT_EQ(r.stats.slo.fast_alerts, 0u);

  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 9u);
  const std::size_t dropped = r.stats.dispatches + r.stats.completed - 8;
  // The breach is dated to the first window's start.
  EXPECT_EQ(lines[0], "{\"format\":\"cim-flight-v1\",\"reason\":"
                      "\"slo-breach\",\"records\":8,\"dropped\":" +
                          std::to_string(dropped) + ",\"t_ns\":\"0\"}");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("{\"event\":\""), 0u) << lines[i];
    EXPECT_EQ(lines[i].back(), '}') << lines[i];
  }
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpToUnwritablePathFailsWithoutCrashing) {
  TilePool pool(test_weights(8, 8), pool_cfg());
  Controller ctl(pool, end_breach_cfg("/nonexistent-dir/f.json", 8));
  const auto r = ctl.run(generate(traffic_cfg(50, 1.0e7)));
  EXPECT_TRUE(r.stats.slo.breached);
  EXPECT_EQ(r.stats.flight_dumps, 0u);
  EXPECT_EQ(r.stats.completed, 50u);
}

// Tracing: each completion gets simulated-time wait/exec spans on pid 2
// joined by a flow arrow keyed on the request id (the trace id).
TEST(Timeline, ChromeTraceCarriesFlowEvents) {
  obs::reset();
  obs::set_mode(obs::Mode::kTrace);
  TilePool pool(test_weights(8, 8), pool_cfg());
  Controller ctl(pool, ControllerConfig{});
  ctl.run(generate(traffic_cfg(50, 1.0e7)));
  std::ostringstream os;
  obs::write_chrome_trace(os);
  obs::set_mode(obs::Mode::kOff);
  obs::reset();

  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"name\":\"req.wait\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"req.exec\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"serve.batch\""), std::string::npos);
  // Flow start/finish pairs with binding point "enclosing slice".
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);
  // Simulated-time lanes live on their own pid, apart from wall-clock spans.
  EXPECT_NE(trace.find("\"pid\":2"), std::string::npos);
}

TEST(Timeline, EnvOverridesParseObservabilityKnobs) {
  TrafficConfig t;
  ControllerConfig c;
  ::setenv("CIM_SERVE_WINDOW_NS", "50000", 1);
  ::setenv("CIM_SERVE_SLO_TARGET_NS", "1e5", 1);
  ::setenv("CIM_SERVE_SLO_OBJECTIVE", "0.95", 1);
  ::setenv("CIM_SERVE_FLIGHT_FILE", "/tmp/flight.json", 1);
  apply_env_overrides(t, c);
  EXPECT_DOUBLE_EQ(c.window_ns, 50000.0);
  EXPECT_DOUBLE_EQ(c.slo_target_ns, 1e5);
  EXPECT_DOUBLE_EQ(c.slo_objective, 0.95);
  EXPECT_EQ(c.flight_dump_path, "/tmp/flight.json");

  // An out-of-range objective is ignored, not applied, and so is a
  // non-finite window; each prints one stderr line naming its variable.
  ::setenv("CIM_SERVE_SLO_OBJECTIVE", "1.5", 1);
  ::setenv("CIM_SERVE_WINDOW_NS", "inf", 1);
  ::testing::internal::CaptureStderr();
  apply_env_overrides(t, c);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_DOUBLE_EQ(c.slo_objective, 0.95);
  EXPECT_DOUBLE_EQ(c.window_ns, 50000.0);
  EXPECT_NE(err.find("CIM_SERVE_SLO_OBJECTIVE"), std::string::npos) << err;
  EXPECT_NE(err.find("CIM_SERVE_WINDOW_NS"), std::string::npos) << err;

  for (const char* k : {"CIM_SERVE_WINDOW_NS", "CIM_SERVE_SLO_TARGET_NS",
                        "CIM_SERVE_SLO_OBJECTIVE", "CIM_SERVE_FLIGHT_FILE"})
    ::unsetenv(k);
}

}  // namespace
}  // namespace cim::serve
