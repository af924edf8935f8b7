/// \file test_snapshot_merge.cpp
/// \brief Snapshot merge semantics of absorb_snapshot (obs/merge.cpp), the
///        live-registry fold a campaign parent applies to worker-process
///        telemetry: counters add, gauges are taken only from a snapshot
///        captured after the cutoff, histograms add bucket-wise only on
///        identical bounds — plus the snapshot-JSON round-trip.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "obs/obs.hpp"

namespace {

using cim::obs::absorb_snapshot;
using cim::obs::MergeStats;
using cim::obs::parse_snapshot_json;
using cim::obs::Registry;
using cim::obs::Snapshot;

Snapshot make_snapshot(std::uint64_t unix_us) {
  Snapshot s;
  s.meta.git_sha = "test";
  s.meta.build_type = "Release";
  s.meta.unix_us = unix_us;
  s.counters = {{"exp.trials_done", 100}, {"worker.only", 7}};
  s.gauges = {{"exp.eta_s", 12.5}};
  Snapshot::Hist h;
  h.name = "trial.latency";
  h.data.bounds = {1.0, 10.0, 100.0};
  h.data.counts = {5, 3, 1, 0};
  h.data.count = 9;
  h.data.sum = 42.0;
  s.histograms.push_back(h);
  return s;
}

TEST(SnapshotMerge, JsonRoundTripsThenMergesIdentically) {
  const Snapshot s = make_snapshot(123456789012345);

  std::ostringstream os;
  cim::obs::write_snapshot_json(os, s);
  Snapshot parsed;
  std::string err;
  ASSERT_TRUE(parse_snapshot_json(os.str(), parsed, &err)) << err;

  EXPECT_EQ(parsed.meta.unix_us, s.meta.unix_us);
  ASSERT_EQ(parsed.counters.size(), s.counters.size());
  ASSERT_EQ(parsed.histograms.size(), s.histograms.size());
  EXPECT_EQ(parsed.histograms[0].data.counts, s.histograms[0].data.counts);
  EXPECT_DOUBLE_EQ(parsed.histograms[0].data.sum, s.histograms[0].data.sum);

  // Absorbing the parsed copy behaves exactly like absorbing the original.
  Registry& reg = Registry::global();
  const auto absorbed = [&reg](const Snapshot& from) {
    reg.reset();
    absorb_snapshot(from, 0);
    return reg.snapshot();
  };
  const Snapshot a = absorbed(s);
  const Snapshot b = absorbed(parsed);
  reg.reset();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
    EXPECT_EQ(a.histograms[i].data.counts, b.histograms[i].data.counts);
    EXPECT_EQ(a.histograms[i].data.count, b.histograms[i].data.count);
    EXPECT_EQ(a.histograms[i].data.sum, b.histograms[i].data.sum);
  }

  // Counters above 2^53 and gauges past 1e308 round-trip exactly.
  Snapshot big = make_snapshot(1);
  big.counters = {{"big", (std::uint64_t{1} << 53) + 1}};
  big.gauges = {{"huge", 1.5e308}};
  std::ostringstream big_os;
  cim::obs::write_snapshot_json(big_os, big);
  Snapshot big_back;
  ASSERT_TRUE(parse_snapshot_json(big_os.str(), big_back, &err)) << err;
  EXPECT_EQ(big_back.counters, big.counters);
  EXPECT_EQ(big_back.gauges, big.gauges);
}

TEST(SnapshotMerge, ParseRejectsGarbage) {
  Snapshot out;
  std::string err;
  EXPECT_FALSE(parse_snapshot_json("not json", out, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_snapshot_json("{\"counters\": [", out, nullptr));

  // A negative counter is rejected instead of cast from a double.
  std::ostringstream os;
  cim::obs::write_snapshot_json(os, make_snapshot(1));
  std::string text = os.str();
  const auto p = text.find("\"worker.only\":7");
  ASSERT_NE(p, std::string::npos) << text;
  text.replace(p, 15, "\"worker.only\":-1");
  err.clear();
  EXPECT_FALSE(parse_snapshot_json(text, out, &err));
  EXPECT_NE(err.find("line 1: json: number -1 is not an unsigned integer"),
            std::string::npos)
      << err;
}

TEST(SnapshotMerge, AbsorbIntoLiveRegistry) {
  Registry& reg = Registry::global();
  reg.reset();
  reg.counter("exp.trials_done").add(10);
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  auto& hist = reg.histogram("trial.latency", bounds);
  hist.observe(5.0);  // bucket 1 (1 < 5 <= 10)

  const Snapshot from = make_snapshot(5000);
  const MergeStats ms = absorb_snapshot(from, 0);
  EXPECT_GE(ms.counters_added, 2u);
  EXPECT_EQ(ms.gauges_taken, 1u);
  EXPECT_EQ(ms.histograms_merged, 1u);
  EXPECT_EQ(ms.bound_conflicts, 0u);

  const Snapshot now = reg.snapshot();
  std::uint64_t trials = 0, adopted = 0;
  for (const auto& [name, v] : now.counters) {
    if (name == "exp.trials_done") trials = v;
    if (name == "worker.only") adopted = v;
  }
  EXPECT_EQ(trials, 110u);
  EXPECT_EQ(adopted, 7u);
  for (const auto& [name, v] : now.gauges)
    if (name == "exp.eta_s") {
      EXPECT_DOUBLE_EQ(v, 12.5);
    }
  bool found = false;
  for (const auto& h : now.histograms)
    if (h.name == "trial.latency") {
      found = true;
      // Bucket-wise add: the live {0, 1, 0, 0} plus the shipped {5, 3, 1, 0}.
      EXPECT_EQ(h.data.counts, (std::vector<std::uint64_t>{5, 4, 1, 0}));
      EXPECT_EQ(h.data.count, 10u);
      EXPECT_DOUBLE_EQ(h.data.sum, 47.0);
    }
  EXPECT_TRUE(found);

  // A stale snapshot cannot overwrite gauges past the cutoff, and one
  // captured exactly at the cutoff takes none either.
  reg.gauge("exp.eta_s").set(77.0);
  const MergeStats stale = absorb_snapshot(from, /*newer_than_unix_us=*/9000);
  EXPECT_EQ(stale.gauges_taken, 0u);
  const MergeStats tie = absorb_snapshot(from, from.meta.unix_us);
  EXPECT_EQ(tie.gauges_taken, 0u);
  const Snapshot after = reg.snapshot();
  for (const auto& [name, v] : after.gauges)
    if (name == "exp.eta_s") {
      EXPECT_DOUBLE_EQ(v, 77.0);
    }
  reg.reset();
}

TEST(SnapshotMerge, AbsorbSkipsConflictingBounds) {
  Registry& reg = Registry::global();
  reg.reset();
  const std::array<double, 3> bounds{2.0, 20.0, 200.0};
  auto& hist = reg.histogram("conflict.latency", bounds);
  hist.observe(5.0);

  Snapshot from = make_snapshot(5000);
  from.histograms[0].name = "conflict.latency";  // shipped as {1, 10, 100}
  const MergeStats ms = absorb_snapshot(from, 0);
  EXPECT_EQ(ms.bound_conflicts, 1u);
  EXPECT_EQ(ms.histograms_merged, 0u);

  bool found = false;
  for (const auto& h : reg.snapshot().histograms)
    if (h.name == "conflict.latency") {
      found = true;
      EXPECT_EQ(h.data.bounds, (std::vector<double>{2.0, 20.0, 200.0}));
      EXPECT_EQ(h.data.counts, (std::vector<std::uint64_t>{0, 1, 0, 0}));
      EXPECT_EQ(h.data.count, 1u);
      EXPECT_DOUBLE_EQ(h.data.sum, 5.0);
    }
  EXPECT_TRUE(found);
  reg.reset();
}

}  // namespace
