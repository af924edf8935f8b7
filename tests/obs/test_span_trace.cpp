/// Span + attribution tests: RAII recording, mode gating, component
/// aggregates, trace-event capture, and instrumented-subsystem smoke
/// checks (crossbar spans, thread-pool lanes).
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "obs/obs.hpp"
#include "obs/trace_events.hpp"
#include "util/thread_pool.hpp"

namespace cim::obs {
namespace {

class SpanTest : public ::testing::Test {
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

TEST_F(SpanTest, SpanRecordsIntoRegistry) {
  {
    CIM_OBS_SPAN_NAMED(span, "test.span.basic", Component::kAdc);
    span.add_energy_pj(2.5);
    span.add_sim_time_ns(7.0);
  }
  const Snapshot s = snapshot();
  bool found = false;
  for (const auto& row : s.spans) {
    if (row.name != "test.span.basic") continue;
    found = true;
    EXPECT_EQ(row.comp, Component::kAdc);
    EXPECT_EQ(row.count, 1u);
    EXPECT_GE(row.wall_ns, 0.0);
    EXPECT_DOUBLE_EQ(row.energy_pj, 2.5);
    EXPECT_DOUBLE_EQ(row.sim_time_ns, 7.0);
  }
  EXPECT_TRUE(found);
}

TEST_F(SpanTest, DisabledModeRecordsNothing) {
  set_mode(Mode::kOff);
  {
    CIM_OBS_SPAN("test.span.disabled", Component::kDac);
  }
  set_mode(Mode::kMetrics);
  for (const auto& row : snapshot().spans) {
    if (row.name == "test.span.disabled") {
      EXPECT_EQ(row.count, 0u);
    }
  }
}

TEST_F(SpanTest, AttributeFeedsBreakdown) {
  attribute(Component::kAdc, 10.0, 100.0);
  attribute(Component::kArray, 5.0, 25.0);
  const auto rows = breakdown();
  double adc_share = 0.0;
  double total_share = 0.0;
  for (const auto& row : rows) {
    total_share += row.energy_share;
    if (row.comp == Component::kAdc) {
      adc_share = row.energy_share;
      EXPECT_DOUBLE_EQ(row.energy_pj, 100.0);
      EXPECT_DOUBLE_EQ(row.sim_time_ns, 10.0);
    }
  }
  EXPECT_NEAR(adc_share, 0.8, 1e-12);
  EXPECT_NEAR(total_share, 1.0, 1e-12);
}

TEST_F(SpanTest, TraceModeCapturesEvents) {
  set_mode(Mode::kTrace);
  reset();
  {
    CIM_OBS_SPAN("test.span.traced", Component::kDigital);
  }
  const auto events = detail::collect_trace_events();
  bool found = false;
  for (const auto& e : events)
    if (std::string_view(e.name) == "test.span.traced") found = true;
  EXPECT_TRUE(found);
  // Reset drops the events.
  reset();
  EXPECT_TRUE(detail::collect_trace_events().empty());
}

TEST_F(SpanTest, MetricsModeDoesNotCaptureEvents) {
  {
    CIM_OBS_SPAN("test.span.untraced", Component::kDigital);
  }
  for (const auto& e : detail::collect_trace_events())
    EXPECT_NE(std::string_view(e.name), "test.span.untraced");
}

TEST_F(SpanTest, NestedSpansCreditComponentsWithSelfTime) {
  // system -> tile -> crossbar shape: three nested spans in three
  // components. Each component gets its span's self time, so the
  // component walls sum to the outer span's wall; per-name walls stay
  // inclusive.
  const auto spin = [] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  {
    CIM_OBS_SPAN("test.nest.outer", Component::kInterconnect);
    spin();
    {
      CIM_OBS_SPAN("test.nest.mid", Component::kDigital);
      spin();
      {
        CIM_OBS_SPAN("test.nest.inner", Component::kArray);
        spin();
      }
    }
  }
  const Snapshot s = snapshot();
  double outer = 0.0, mid = 0.0, inner = 0.0;
  for (const auto& row : s.spans) {
    if (row.name == "test.nest.outer") outer = row.wall_ns;
    if (row.name == "test.nest.mid") mid = row.wall_ns;
    if (row.name == "test.nest.inner") inner = row.wall_ns;
  }
  EXPECT_GT(inner, 0.0);
  EXPECT_GT(mid, inner);
  EXPECT_GT(outer, mid);
  double component_sum = 0.0;
  for (const auto& row : s.components) {
    component_sum += row.wall_ns;
    const double self = row.comp == Component::kArray     ? inner
                        : row.comp == Component::kDigital ? mid - inner
                        : row.comp == Component::kInterconnect ? outer - mid
                                                               : 0.0;
    EXPECT_EQ(row.wall_ns, self) << component_name(row.comp);
  }
  EXPECT_EQ(component_sum, outer);
}

TEST_F(SpanTest, CrossbarVmmRecordsSpanAndArrayAttribution) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  crossbar::Crossbar xbar(cfg);
  const std::vector<double> v(8, 0.2);
  reset();  // drop construction-time noise
  (void)xbar.vmm(v);
  const Snapshot s = snapshot();
  bool span_found = false;
  for (const auto& row : s.spans)
    if (row.name == "crossbar.vmm" && row.count == 1) span_found = true;
  EXPECT_TRUE(span_found);
  bool counter_found = false;
  for (const auto& [name, v2] : s.counters)
    if (name == "crossbar.vmm_ops" && v2 == 1) counter_found = true;
  EXPECT_TRUE(counter_found);
  // charge() attributed the read to the array component.
  for (const auto& row : s.components) {
    if (row.comp == Component::kArray) {
      EXPECT_GT(row.events, 0u);
    }
  }
}

TEST_F(SpanTest, ThreadPoolReportsUtilization) {
  util::ThreadPool pool(2);
  std::vector<int> out(64, 0);
  pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] = 1; });
  const Snapshot s = snapshot();
  std::uint64_t jobs = 0;
  std::uint64_t chunks = 0;
  for (const auto& [name, v] : s.counters) {
    if (name == "threadpool.jobs") jobs = v;
    if (name == "threadpool.chunks") chunks = v;
  }
  EXPECT_GE(jobs, 1u);
  EXPECT_GE(chunks, 1u);
  bool lane_metric = false;
  for (const auto& [name, v] : s.counters)
    if (name.rfind("threadpool.lane", 0) == 0) lane_metric = true;
  EXPECT_TRUE(lane_metric);
}

}  // namespace
}  // namespace cim::obs
