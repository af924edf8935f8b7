/// Process-wide Prometheus endpoint lifecycle: explicit start/stop by
/// non-CimSystem front-ends, idempotent double-start, rebind refusal, the
/// env hook on a port another endpoint holds, and the quantile gauge family
/// the serving dashboards scrape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/obs.hpp"
#include "obs/prom.hpp"

namespace cim::obs {
namespace {

TEST(PromLifecycle, EnvHookDeclinesWhenUnsetOrDisabled) {
  ::unsetenv("CIM_OBS_PROM_PORT");
  set_mode(Mode::kMetrics);
  EXPECT_EQ(maybe_start_prometheus_from_env(), 0);
  EXPECT_FALSE(global_prom_server().running());
  // A port is decimal digits up to 65535: anything else is malformed.
  for (const char* bad : {"-1", "65536", "9464x", "18446744073709551617"}) {
    ::setenv("CIM_OBS_PROM_PORT", bad, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(maybe_start_prometheus_from_env(), 0) << bad;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "CIM_OBS_PROM_PORT"),
              std::string::npos)
        << bad;
    EXPECT_FALSE(global_prom_server().running());
  }
  ::unsetenv("CIM_OBS_PROM_PORT");
  set_mode(Mode::kOff);
}

TEST(PromLifecycle, EnvHookSaysOnceWhenThePortIsTaken) {
  PromServer holder;  // another endpoint holds the port
  ASSERT_TRUE(holder.start(0));
  const std::string port = std::to_string(holder.port());
  ::setenv("CIM_OBS_PROM_PORT", port.c_str(), 1);
  set_mode(Mode::kMetrics);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(maybe_start_prometheus_from_env(), 0);
  EXPECT_EQ(maybe_start_prometheus_from_env(), 0);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(global_prom_server().running());
  EXPECT_NE(err.find("CIM_OBS_PROM_PORT"), std::string::npos) << err;
  EXPECT_NE(err.find(port), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  ::unsetenv("CIM_OBS_PROM_PORT");
  set_mode(Mode::kOff);
}

TEST(PromLifecycle, ExplicitStartIsIdempotentAndStoppable) {
  // Explicit lifecycle needs no CimSystem and no telemetry mode.
  const std::uint16_t port = start_global_prometheus(0);
  ASSERT_NE(port, 0);
  EXPECT_TRUE(global_prom_server().running());

  // Double-start: no-op, reports the already-bound port.
  EXPECT_EQ(start_global_prometheus(0), port);
  EXPECT_EQ(start_global_prometheus(port), port);
  // Rebinding to a different port while running is refused.
  EXPECT_EQ(start_global_prometheus(static_cast<std::uint16_t>(port + 1)), 0);
  EXPECT_EQ(global_prom_server().port(), port);

  stop_global_prometheus();
  EXPECT_FALSE(global_prom_server().running());
  stop_global_prometheus();  // stop when stopped is a no-op

  // The endpoint can come back after a stop.
  ASSERT_NE(start_global_prometheus(0), 0);
  stop_global_prometheus();
}

TEST(PromLifecycle, HistogramQuantileGaugesExported) {
  Registry::global().reset();
  auto& h = Registry::global().histogram(
      "serve.test.latency", std::vector<double>{10.0, 20.0, 40.0});
  for (int i = 0; i < 100; ++i) h.observe(15.0);

  std::ostringstream os;
  write_prometheus_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("cim_serve_test_latency_q{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cim_serve_test_latency_q{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cim_serve_test_latency_q{quantile=\"0.999\"}"),
            std::string::npos);
  // All mass at the (10, 20] bucket midpointish estimates: within bounds.
  const auto pos = text.find("_q{quantile=\"0.5\"} ");
  ASSERT_NE(pos, std::string::npos);
  const double p50 = std::strtod(
      text.c_str() + pos + std::string("_q{quantile=\"0.5\"} ").size(),
      nullptr);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 20.0);
  Registry::global().reset();
}

}  // namespace
}  // namespace cim::obs
