/// cim-reqlog-v1 round-trips: serving runs survive dump -> parse
/// field-exactly (doubles bitwise via %.17g), dump -> parse -> dump is a
/// byte-exact fixpoint, CRLF/trailing-whitespace-damaged logs still parse
/// (the robustness contract shared with cim-trace-v1), malformed logs
/// fail with line-numbered errors, and the CIM_OBS_REQLOG_FILE env hook
/// writes the crash-safe export from Controller::run.
#include "serve/reqlog.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "serve/controller.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"

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

/// A saturating run with a small queue: produces completions with
/// non-trivial decompositions AND rejections, exercising both record types.
ServeReport shedding_report() {
  TilePool pool(test_weights(8, 8), pool_cfg());
  ControllerConfig ccfg;
  ccfg.queue_capacity = 32;
  ccfg.max_batch = 4;
  Controller ctl(pool, ccfg);
  TrafficConfig tcfg;
  tcfg.requests = 200;
  tcfg.rate_rps = 1.0e15;
  tcfg.in_dim = 8;
  tcfg.seed = 5;
  return ctl.run(generate(tcfg));
}

TEST(ReqLog, ServingRunRoundTripsFieldExactly) {
  const auto report = shedding_report();
  ASSERT_GT(report.completions.size(), 0u);
  ASSERT_GT(report.rejections.size(), 0u);

  std::ostringstream os;
  write_reqlog(os, report);
  std::istringstream is(os.str());
  const ReqLog log = read_reqlog(is);

  ASSERT_EQ(log.completions.size(), report.completions.size());
  ASSERT_EQ(log.rejections.size(), report.rejections.size());
  for (std::size_t i = 0; i < log.completions.size(); ++i) {
    const Completion& a = report.completions[i];
    const Completion& b = log.completions[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.escalated, b.escalated);
    EXPECT_EQ(a.replica, b.replica);
    EXPECT_EQ(a.batch_size, b.batch_size);
    EXPECT_EQ(a.label, b.label);
    // %.17g makes every double survive the text round trip bitwise, so
    // the decomposition identity survives parsing too.
    EXPECT_EQ(a.arrival_ns, b.arrival_ns);
    EXPECT_EQ(a.dispatch_ns, b.dispatch_ns);
    EXPECT_EQ(a.done_ns, b.done_ns);
    EXPECT_EQ(a.batch_wait_ns, b.batch_wait_ns);
    EXPECT_EQ(a.queue_wait_ns, b.queue_wait_ns);
    EXPECT_EQ(a.issue_wait_ns, b.issue_wait_ns);
    EXPECT_EQ(a.bitserial_ns, b.bitserial_ns);
    EXPECT_EQ(a.reduce_ns, b.reduce_ns);
    EXPECT_EQ(b.arrival_ns + b.decomposition_sum(), b.done_ns);
  }
  for (std::size_t i = 0; i < log.rejections.size(); ++i) {
    EXPECT_EQ(log.rejections[i].id, report.rejections[i].id);
    EXPECT_EQ(log.rejections[i].kind, report.rejections[i].kind);
    EXPECT_EQ(log.rejections[i].arrival_ns, report.rejections[i].arrival_ns);
  }
}

TEST(ReqLog, DumpParseDumpIsAByteExactFixpoint) {
  const auto report = shedding_report();
  std::ostringstream once;
  write_reqlog(once, report);
  std::istringstream is(once.str());
  const ReqLog log = read_reqlog(is);
  std::ostringstream twice;
  write_reqlog(twice, log);
  EXPECT_EQ(once.str(), twice.str());
}

TEST(ReqLog, ToleratesCrlfTrailingWhitespaceAndBlankLines) {
  const auto report = shedding_report();
  std::ostringstream os;
  write_reqlog(os, report);
  const std::string clean = os.str();

  // Re-damage the log the way a windows checkout or an editor would:
  // CRLF line endings, trailing spaces/tabs, interleaved blank lines.
  std::string damaged;
  std::istringstream lines(clean);
  std::string line;
  while (std::getline(lines, line)) {
    damaged += line;
    damaged += " \t\r\n\r\n";
  }
  std::istringstream is(damaged);
  const ReqLog log = read_reqlog(is);
  ASSERT_EQ(log.completions.size(), report.completions.size());
  ASSERT_EQ(log.rejections.size(), report.rejections.size());

  // The damaged parse still re-dumps to the clean fixpoint.
  std::ostringstream redump;
  write_reqlog(redump, log);
  EXPECT_EQ(redump.str(), clean);
}

TEST(ReqLog, MalformedLogsFailWithLineNumbers) {
  const char* kHeader =
      "{\"format\":\"cim-reqlog-v1\",\"completions\":0,\"rejections\":0}\n";
  const struct {
    std::string text;
    const char* needle;
  } cases[] = {
      {"", "no header"},
      {"{\"format\":\"cim-reqlog-v2\"}\n", "line 1"},
      {"not json\n", "line 1"},
      {std::string(kHeader) + "{\"id\":0}\n", "missing 'event'"},
      {std::string(kHeader) + "{\"event\":\"warp\",\"id\":0}\n",
       "unknown event"},
      {std::string(kHeader) +
           "{\"event\":\"rejected\",\"id\":0,\"kind\":\"quantum\","
           "\"arrival_ns\":0}\n",
       "unknown kind"},
      {std::string(kHeader) +
           "{\"event\":\"rejected\",\"id\":0,\"kind\":\"vmm\"}\n",
       "line 2"},
      {std::string(kHeader) +
           "{\"event\":\"rejected\",\"id\":-1,\"kind\":\"vmm\","
           "\"arrival_ns\":0}\n",
       "line 2: json: number -1 is not an unsigned integer"},
      {std::string(kHeader) +
           "{\"event\":\"rejected\",\"id\":1e300,\"kind\":\"vmm\","
           "\"arrival_ns\":0}\n",
       "line 2: json: number 1e300 is not an unsigned integer"},
      {std::string(kHeader) +
           "{\"event\":\"done\",\"id\":0,\"kind\":\"vmm\",\"tier\":"
           "\"full\",\"escalated\":false,\"replica\":0,\"batch\":1,"
           "\"label\":1e10,\"arrival_ns\":0,\"dispatch_ns\":0,\"done_ns\":0,"
           "\"batch_wait_ns\":0,\"queue_wait_ns\":0,\"issue_wait_ns\":0,"
           "\"bitserial_ns\":0,\"reduce_ns\":0}\n",
       "line 2: json: number 1e10 is not an integer"},
      {std::string(kHeader) +
           "{\"event\":\"rejected\",\"id\":0,\"arrival_ns\":0}\n",
       "line 2: json: missing 'kind'"},
      {std::string(kHeader) +
           "{\"event\":\"rejected\",\"id\":0,\"id\":1,\"kind\":\"vmm\","
           "\"arrival_ns\":0}\n",
       "line 2: duplicate key 'id'"},
  };
  for (const auto& c : cases) {
    std::istringstream is(c.text);
    try {
      read_reqlog(is);
      FAIL() << "expected parse failure for: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << "error '" << e.what() << "' lacks '" << c.needle << "'";
    }
  }
}

TEST(ReqLog, EnvHookExportsFromControllerRun) {
  const std::string path =
      std::string(::testing::TempDir()) + "reqlog_env_export.cimreqlog";
  std::remove(path.c_str());

  // Disabled telemetry: no export even when the path is set.
  obs::set_mode(obs::Mode::kOff);
  ::setenv("CIM_OBS_REQLOG_FILE", path.c_str(), 1);
  const auto report = shedding_report();
  EXPECT_FALSE(std::ifstream(path).good());

  // Enabled: Controller::run writes the crash-safe export.
  obs::set_mode(obs::Mode::kMetrics);
  const auto report2 = shedding_report();
  obs::set_mode(obs::Mode::kOff);
  ::unsetenv("CIM_OBS_REQLOG_FILE");

  const ReqLog log = read_reqlog_file(path);
  EXPECT_EQ(log.completions.size(), report2.completions.size());
  EXPECT_EQ(log.rejections.size(), report2.rejections.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cim::serve
