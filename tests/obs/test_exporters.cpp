/// Exporter tests: the JSON snapshot, the Chrome trace_event document
/// produced by a real CimSystem workload (the bench_cim_system telemetry
/// path), the BENCH_JSON line schema, and the env-named exports failing
/// loudly, into a missing directory and on a short write.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cim_system.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace cim::obs {
namespace {

class ExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_mode(Mode::kMetrics);
    reset();
  }
  void TearDown() override {
    set_mode(Mode::kOff);
    reset();
  }
};

TEST_F(ExporterTest, SnapshotJsonIsValidAndCarriesMeta) {
  Registry::global().counter("test.export.counter").add(3);
  Registry::global().gauge("test.export.gauge").set(1.25);
  Registry::global()
      .histogram("test.export.hist", std::vector<double>{1.0, 2.0})
      .observe(1.5);
  {
    CIM_OBS_SPAN("test.export.span", Component::kAdc);
  }
  attribute(Component::kAdc, 1.0, 2.0);

  std::ostringstream os;
  write_snapshot_json(os);
  const json::Value doc = json::parse(os.str());

  const auto& meta = doc.at("meta");
  EXPECT_TRUE(meta.at("git_sha").is_string());
  EXPECT_TRUE(meta.at("build_type").is_string());
  EXPECT_GE(meta.at("threads").as_number(), 1.0);
  EXPECT_EQ(meta.at("cim_obs").as_string(), "metrics");

  EXPECT_DOUBLE_EQ(doc.at("counters").at("test.export.counter").as_number(),
                   3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("test.export.gauge").as_number(), 1.25);
  const auto& hist = doc.at("histograms").at("test.export.hist");
  EXPECT_EQ(hist.at("bounds").as_array().size(), 2u);
  EXPECT_EQ(hist.at("counts").as_array().size(), 3u);
  const auto& span = doc.at("spans").at("test.export.span");
  EXPECT_EQ(span.at("component").as_string(), "adc");
  EXPECT_GE(span.at("count").as_number(), 1.0);
  EXPECT_GE(doc.at("components").at("adc").at("energy_pj").as_number(), 2.0);
}

TEST_F(ExporterTest, CimSystemWorkloadProducesValidChromeTrace) {
  // The acceptance path: run the bench_cim_system workload shape in trace
  // mode and validate the exported document as Chrome trace_event JSON.
  set_mode(Mode::kTrace);

  util::Rng rng(7);
  const std::size_t in = 48, out = 24;
  util::Matrix w(out, in);
  for (double& v : w.flat())
    v = static_cast<double>(rng.uniform_int(15)) - 7.0;
  core::CimSystemConfig cfg;
  cfg.tile.tile.rows = 32;
  cfg.tile.tile.cols = 16;
  core::CimSystem sys(w, cfg);

  reset();  // telemetry for the workload only, not construction
  std::vector<std::uint32_t> x(in);
  for (auto& v : x) v = rng.uniform_int(15);
  (void)sys.vmm_int(x, 4);

  std::ostringstream os;
  write_chrome_trace(os);
  const json::Value doc = json::parse(os.str());

  EXPECT_TRUE(doc.at("displayTimeUnit").is_string());
  const auto& meta = doc.at("otherData");
  EXPECT_TRUE(meta.at("git_sha").is_string());

  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool saw_system = false, saw_tile = false, saw_crossbar = false;
  double last_ts = -1.0;
  for (const auto& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("ts").as_number(), last_ts);  // exporter sorts by ts
    last_ts = e.at("ts").as_number();
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_TRUE(e.at("cat").is_string());
    const auto& name = e.at("name").as_string();
    if (name == "system.vmm_int") saw_system = true;
    if (name == "tile.vmm_int") saw_tile = true;
    if (name == "crossbar.vmm") saw_crossbar = true;
  }
  EXPECT_TRUE(saw_system);
  EXPECT_TRUE(saw_tile);
  EXPECT_TRUE(saw_crossbar);
}

TEST_F(ExporterTest, BenchJsonLineMatchesSchema) {
  const std::string line =
      bench_json_line("test_bench", 12.5, 100.0, {{"extra_metric", 3.5}});
  const std::string prefix = "BENCH_JSON ";
  ASSERT_EQ(line.rfind(prefix, 0), 0u);
  const json::Value doc = json::parse(line.substr(prefix.size()));
  EXPECT_EQ(doc.at("bench").as_string(), "test_bench");
  EXPECT_DOUBLE_EQ(doc.at("wall_ms").as_number(), 12.5);
  EXPECT_DOUBLE_EQ(doc.at("ops").as_number(), 100.0);
  EXPECT_NEAR(doc.at("ops_per_s").as_number(), 8000.0, 0.1);
  EXPECT_GE(doc.at("threads").as_number(), 1.0);
  EXPECT_GE(doc.at("peak_rss_mb").as_number(), 0.0);
  EXPECT_TRUE(doc.at("cache_full_rebuilds").is_number());
  EXPECT_TRUE(doc.at("cache_delta_updates").is_number());
  EXPECT_TRUE(doc.at("git_sha").is_string());
  EXPECT_TRUE(doc.at("build_type").is_string());
  EXPECT_DOUBLE_EQ(doc.at("extra_metric").as_number(), 3.5);
}

TEST_F(ExporterTest, FailedEnvExportThrowsAfterTheBenchJsonLine) {
  const std::string dir = ::testing::TempDir() + "cim-no-such-dir";
  ASSERT_FALSE(std::filesystem::exists(dir));
  HealthRegistry::global().clear();
  const auto monitor = HealthRegistry::global().monitor("hook", 1, 1);
  const struct {
    const char* var;
    Mode mode;
  } hooks[] = {{"CIM_OBS_SNAPSHOT_FILE", Mode::kMetrics},
               {"CIM_OBS_TRACE_FILE", Mode::kTrace},
               {"CIM_OBS_PROM_FILE", Mode::kMetrics},
               {"CIM_OBS_HEATMAP_FILE", Mode::kHealth}};
  for (const auto& h : hooks) {
    const std::string path = dir + "/" + h.var;
    set_mode(h.mode);
    ::setenv(h.var, path.c_str(), 1);
    ::testing::internal::CaptureStdout();
    std::string what;
    try {
      emit_bench_json("hook_bench", 1.0, 1.0);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    const std::string out = ::testing::internal::GetCapturedStdout();
    ::unsetenv(h.var);
    EXPECT_EQ(out.rfind("BENCH_JSON {\"bench\":\"hook_bench\"", 0), 0u)
        << h.var << ": " << out;
    EXPECT_NE(what.find(h.var), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  HealthRegistry::global().clear();
}

// A short write: while the process may write at most 4 KiB to a file, an
// export of 1 MiB fails part way (SIGXFSZ ignored, so write() returns EFBIG
// instead of killing the process). The limit and the handler are restored
// on leaving the scope.
TEST_F(ExporterTest, ShortWriteLeavesNoFileAndThrowsNamingIt) {
  const std::string path = ::testing::TempDir() + "cim-short-write.json";
  const auto big = [](std::ostream& os) { os << std::string(1 << 20, 'x'); };
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
  ::setenv("CIM_OBS_SNAPSHOT_FILE", path.c_str(), 1);
  bool wrote = true;
  std::string what;
  {
    struct FileSizeLimit {
      rlimit old{};
      void (*handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
      FileSizeLimit() {
        ::getrlimit(RLIMIT_FSIZE, &old);
        rlimit low = old;
        low.rlim_cur = std::min<rlim_t>(4096, old.rlim_max);
        ::setrlimit(RLIMIT_FSIZE, &low);
      }
      ~FileSizeLimit() {
        ::setrlimit(RLIMIT_FSIZE, &old);
        std::signal(SIGXFSZ, handler);
      }
    } limit;
    wrote = write_file_atomic(path, big);
    try {
      export_env_file("CIM_OBS_SNAPSHOT_FILE",
                      [&](std::ostream& os, auto) { big(os); });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
  }
  ::unsetenv("CIM_OBS_SNAPSHOT_FILE");
  EXPECT_FALSE(wrote);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_NE(what.find("CIM_OBS_SNAPSHOT_FILE"), std::string::npos) << what;
  EXPECT_NE(what.find(path), std::string::npos) << what;
}

TEST_F(ExporterTest, JsonParserRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,2,]x"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
  EXPECT_NO_THROW(json::parse(R"({"a":[1,2.5,-3e2],"b":{"c":null}})"));
}

}  // namespace
}  // namespace cim::obs
