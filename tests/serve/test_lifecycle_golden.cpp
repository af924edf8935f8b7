/// Golden regression of the serving controller's lifecycle outputs: for six
/// scenarios, the cim-reqlog-v1 bytes, every WindowStat field, the SLO
/// summary (numbers at %.17g) and the flight-dump bytes. Any change to the
/// windowed series, the SLO burn-rate pass or the flight dump must keep
/// every line byte-identical.
///
/// The scenarios cover a fast-burn dump that has dropped records, a
/// shed-spike dump, a breach found only at finalize, windows without an
/// SLO, a run spanning more than 64 windows, and integer arrival times
/// where a batch seal, a rejection and a completion share one timestamp.
///
/// tests/data/serve_lifecycle.golden was written once by the disabled case
/// below, and is never rewritten by the test suite:
///
///   build/tests/test_timeline --gtest_also_run_disabled_tests
///       --gtest_filter=LifecycleGolden.DISABLED_DumpGolden
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/controller.hpp"
#include "serve/reqlog.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"

namespace cim::serve {
namespace {

const char* const kGoldenPath = CIM_TEST_DATA_DIR "/serve_lifecycle.golden";

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

util::Matrix weights() {
  util::Rng rng(11);
  util::Matrix w(8, 8);
  for (auto& v : w.flat())
    v = static_cast<double>(static_cast<long>(rng.uniform_int(15)) - 7);
  return w;
}

TilePoolConfig pool_cfg(std::size_t replicas) {
  TilePoolConfig cfg;
  cfg.replicas = replicas;
  cfg.system.tile.tile.rows = 8;
  cfg.system.tile.tile.cols = 8;
  cfg.system.tile.array.model_ir_drop = false;
  cfg.seed = 77;
  return cfg;
}

std::vector<Request> traffic(std::size_t n, double rate_rps,
                             ArrivalProcess process, std::uint64_t seed) {
  TrafficConfig cfg;
  cfg.requests = n;
  cfg.rate_rps = rate_rps;
  cfg.process = process;
  cfg.in_dim = 8;
  cfg.inference_frac = 0.4;
  cfg.seed = seed;
  return generate(cfg);
}

/// Hand-built stream on one replica (8x8 tile, 4-bit inputs: 29 ns of
/// service, 600 ns of issue overhead, so every time below is an integer).
/// The pair at t=0 seals at its 100 ns deadline and runs [100, 758); the
/// pair at 629/640 seals at its deadline 729 behind it. At t=729 the second
/// batch seals, the request arriving then is rejected (two dispatched but
/// unstarted requests fill the queue), and the first request of the first
/// batch completes. 729 = 3 * 243 also opens window 3.
std::vector<Request> tie_stream() {
  const double arrivals[] = {0.0, 0.0, 629.0, 640.0, 729.0, 2000.0};
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < std::size(arrivals); ++i) {
    Request r;
    r.id = i;
    r.arrival_ns = arrivals[i];
    r.kind = i % 2 == 0 ? RequestKind::kVmm : RequestKind::kInference;
    r.input_bits = 4;
    r.tier = crossbar::FidelityTier::kIdeal;
    r.input.assign(8, static_cast<std::uint32_t>(i + 1));
    reqs.push_back(std::move(r));
  }
  return reqs;
}

struct Scenario {
  const char* name;
  std::size_t replicas;
  ControllerConfig cfg;
  std::vector<Request> requests;
  bool flight = true;  ///< dump the flight recorder to a scratch file
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    // Impossible target: window 0 burns at 100x, and its close (the first
    // event of window 1) dumps a 16-record ring that has dropped records.
    ControllerConfig c;
    c.window_ns = 5000.0;
    c.slo_target_ns = 1.0;
    c.slo_objective = 0.99;
    c.flight_capacity = 16;
    out.push_back({"fast_burn_dropped", 2, c,
                   traffic(150, 1.0e7, ArrivalProcess::kPoisson, 5)});
  }
  {
    // Saturating arrivals into an 8-deep queue: the fourth rejection of a
    // window dumps before any window closes.
    ControllerConfig c;
    c.window_ns = 1000.0;
    c.slo_target_ns = 1.0e5;
    c.slo_objective = 0.9;
    c.queue_capacity = 8;
    c.flight_shed_spike = 4;
    c.flight_capacity = 24;
    out.push_back({"shed_spike", 1, c,
                   traffic(150, 1.0e8, ArrivalProcess::kPoisson, 6)});
  }
  {
    // Objective 0.5: a window burns at most 2x, far below both alert
    // thresholds, so only the finalize budget check finds the breach.
    ControllerConfig c;
    c.window_ns = 4000.0;
    c.slo_target_ns = 1.0;
    c.slo_objective = 0.5;
    c.flight_capacity = 32;
    out.push_back({"finalize_breach", 2, c,
                   traffic(120, 1.0e7, ArrivalProcess::kPoisson, 7)});
  }
  {
    // Windows on, SLO off: violations count the rejections only.
    ControllerConfig c;
    c.window_ns = 2000.0;
    c.queue_capacity = 8;
    out.push_back({"windows_no_slo", 1, c,
                   traffic(150, 5.0e7, ArrivalProcess::kPoisson, 8), false});
  }
  {
    // Bursty traffic across ~130 windows of 2 us (more than 64): a window
    // with only violations burns at 20x, so fast alerts start and stop.
    ControllerConfig c;
    c.window_ns = 2000.0;
    c.slo_target_ns = 1500.0;
    c.slo_objective = 0.95;
    c.max_batch = 4;
    c.flight_capacity = 64;
    out.push_back({"many_windows", 1, c,
                   traffic(200, 1.0e6, ArrivalProcess::kMmpp, 9)});
  }
  {
    ControllerConfig c;
    c.max_batch = 8;
    c.batch_deadline_ns = 100.0;
    c.queue_capacity = 2;
    c.window_ns = 243.0;
    c.slo_target_ns = 700.0;
    c.slo_objective = 0.99;
    c.flight_shed_spike = 1;
    out.push_back({"shared_timestamp", 1, c, tie_stream()});
  }
  return out;
}

/// Every golden line of one scenario.
std::vector<std::string> run_scenario(Scenario& s) {
  const std::string dump_path = std::string(::testing::TempDir()) +
                                "serve_lifecycle_" + s.name + ".flight";
  std::remove(dump_path.c_str());
  if (s.flight) s.cfg.flight_dump_path = dump_path;

  TilePool pool(weights(), pool_cfg(s.replicas));
  Controller ctl(pool, s.cfg);
  const ServeReport report = ctl.run(s.requests);

  std::vector<std::string> lines;
  lines.push_back(std::string("scenario ") + s.name);
  std::ostringstream reqlog;
  write_reqlog(reqlog, report);
  std::istringstream rl(reqlog.str());
  for (std::string line; std::getline(rl, line);)
    lines.push_back("reqlog " + line);

  for (const WindowStat& w : report.stats.windows)
    lines.push_back("window index=" + std::to_string(w.index) +
                    " start_ns=" + num(w.start_ns) +
                    " completed=" + std::to_string(w.completed) +
                    " rejected=" + std::to_string(w.rejected) +
                    " rate_rps=" + num(w.rate_rps) +
                    " p50_ns=" + num(w.p50_ns) + " p99_ns=" + num(w.p99_ns) +
                    " p999_ns=" + num(w.p999_ns) +
                    " slo_violations=" + std::to_string(w.slo_violations) +
                    " burn_rate=" + num(w.burn_rate));

  const auto& slo = report.stats.slo;
  lines.push_back(
      "slo enabled=" + std::to_string(slo.enabled) +
      " target_ns=" + num(slo.target_ns) + " objective=" + num(slo.objective) +
      " window_ns=" + num(slo.window_ns) +
      " good=" + std::to_string(slo.good) + " bad=" + std::to_string(slo.bad) +
      " budget_consumed=" + num(slo.budget_consumed) +
      " fast_alerts=" + std::to_string(slo.fast_alerts) +
      " slow_alerts=" + std::to_string(slo.slow_alerts) +
      " breached=" + std::to_string(slo.breached) +
      " first_breach_ns=" + num(slo.first_breach_ns));

  lines.push_back("flight_dumps=" + std::to_string(report.stats.flight_dumps));
  std::ifstream dump(dump_path, std::ios::binary);
  for (std::string line; std::getline(dump, line);)
    lines.push_back("flight " + line);
  std::remove(dump_path.c_str());
  return lines;
}

std::vector<std::string> run_all() {
  std::vector<std::string> lines;
  for (Scenario& s : scenarios())
    for (std::string& line : run_scenario(s)) lines.push_back(std::move(line));
  return lines;
}

TEST(LifecycleGolden, DISABLED_DumpGolden) {
  const auto lines = run_all();
  std::ofstream out(kGoldenPath);
  ASSERT_TRUE(out) << kGoldenPath;
  out << "# cim serve lifecycle golden: per scenario the reqlog, windows, "
         "SLO summary and flight dump (%.17g)\n";
  for (const auto& line : lines) out << line << '\n';
  ASSERT_TRUE(out.good());
}

TEST(LifecycleGolden, MatchesCheckedInGolden) {
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing " << kGoldenPath;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  const auto actual = run_all();
  ASSERT_EQ(actual.size(), expected.size());
  int mismatches = 0;
  for (std::size_t k = 0; k < actual.size() && mismatches < 5; ++k) {
    if (actual[k] == expected[k]) continue;
    ++mismatches;
    ADD_FAILURE() << "line " << k << " differs\n  golden: " << expected[k]
                  << "\n  actual: " << actual[k];
  }
}

}  // namespace
}  // namespace cim::serve
