/// Metrics-registry unit tests: counters, gauges, histograms, snapshot
/// determinism, and the always-on cache counters a crossbar bumps.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "crossbar/crossbar.hpp"

namespace cim::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_mode(Mode::kOff);
    reset();
  }
  void TearDown() override {
    set_mode(Mode::kOff);
    reset();
  }
};

TEST_F(MetricsTest, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, CounterConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST_F(MetricsTest, AtomicF64AccumulatesConcurrently) {
  AtomicF64 a;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&a] {
      for (int i = 0; i < kPerThread; ++i) a.add(0.5);
    });
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(a.value(), kThreads * kPerThread * 0.5);
}

TEST_F(MetricsTest, HistogramBucketsValues) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive upper bound)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 5.0 + 1000.0);
}

TEST_F(MetricsTest, RegistryReturnsSameMetricForSameName) {
  Counter& a = Registry::global().counter("test.same_name");
  Counter& b = Registry::global().counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
}

TEST_F(MetricsTest, SnapshotIsSortedAndDeterministic) {
  Registry::global().counter("test.zebra").add(1);
  Registry::global().counter("test.alpha").add(2);
  Registry::global().gauge("test.gauge").set(4.0);
  const Snapshot s1 = snapshot();
  const Snapshot s2 = snapshot();
  ASSERT_EQ(s1.counters.size(), s2.counters.size());
  for (std::size_t i = 0; i < s1.counters.size(); ++i) {
    EXPECT_EQ(s1.counters[i], s2.counters[i]);
    if (i > 0) {
      EXPECT_LT(s1.counters[i - 1].first, s1.counters[i].first);
    }
  }
  // Snapshot carries build metadata for self-describing exports.
  EXPECT_FALSE(s1.meta.git_sha.empty());
  EXPECT_FALSE(s1.meta.build_type.empty());
  EXPECT_GE(s1.meta.threads, 1u);
}

TEST_F(MetricsTest, ResetZeroesButKeepsRegistrations) {
  Counter& c = Registry::global().counter("test.reset_me");
  c.add(5);
  reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&Registry::global().counter("test.reset_me"), &c);
}

TEST_F(MetricsTest, PerfCountersCountEvenWhenObsDisabled) {
  // The cache counters are storage, not telemetry: with CIM_OBS off a
  // crossbar's cache rebuild and delta repair still reach the registry
  // (BENCH_JSON's cache_* fields read it).
  set_mode(Mode::kOff);
  const Counter& rebuilds = Registry::global().counter("cache.full_rebuilds");
  const Counter& deltas = Registry::global().counter("cache.delta_updates");
  const std::uint64_t rebuilds_before = rebuilds.value();
  const std::uint64_t deltas_before = deltas.value();
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 16;
  crossbar::Crossbar xb(cfg);
  const std::vector<double> v(16, 0.2);
  xb.vmm(v);  // the first read builds the cache
  xb.write_bit(3, 5, true);
  xb.vmm(v);  // the next one repairs the dirty cells
  EXPECT_EQ(xb.stats().cache_full_rebuilds, 1u);
  EXPECT_EQ(xb.stats().cache_delta_updates, 1u);
  EXPECT_EQ(rebuilds.value(), rebuilds_before + 1);
  EXPECT_EQ(deltas.value(), deltas_before + 1);
}

TEST_F(MetricsTest, BuildInfoIsPopulated) {
  const BuildInfo info = build_info();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_GE(info.threads, 1u);

  // CIM_THREADS is decimal digits clamped to 1024; a malformed value falls
  // back to the hardware count like an unset one, it is not wrapped.
  ::unsetenv("CIM_THREADS");
  const std::size_t hw = build_info().threads;
  ::setenv("CIM_THREADS", "5000", 1);
  EXPECT_EQ(build_info().threads, 1024u);
  ::setenv("CIM_THREADS", "-1", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(build_info().threads, hw);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("CIM_THREADS"),
            std::string::npos);
  ::unsetenv("CIM_THREADS");
}

}  // namespace
}  // namespace cim::obs
