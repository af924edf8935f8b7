/// \file test_snapshot_merge.cpp
/// \brief Snapshot merge semantics (obs/merge.cpp): counters add, gauges
///        resolve last-writer-wins by capture time, histograms add
///        bucket-wise only on identical bounds, spans accumulate — plus
///        the JSON round-trip and live-registry absorption used when a
///        campaign parent folds in worker-process telemetry.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "obs/obs.hpp"

namespace {

using cim::obs::absorb_snapshot;
using cim::obs::merge_snapshot;
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

TEST(SnapshotMerge, CountersAddAndNewNamesAreAdopted) {
  Snapshot into = make_snapshot(1000);
  into.counters = {{"exp.trials_done", 50}};
  const Snapshot from = make_snapshot(2000);

  const MergeStats ms = merge_snapshot(into, from);
  EXPECT_EQ(ms.counters_added, 2u);

  std::uint64_t trials = 0, adopted = 0;
  for (const auto& [name, v] : into.counters) {
    if (name == "exp.trials_done") trials = v;
    if (name == "worker.only") adopted = v;
  }
  EXPECT_EQ(trials, 150u);
  EXPECT_EQ(adopted, 7u);
}

TEST(SnapshotMerge, GaugesAreLastWriterWinsByCaptureTime) {
  Snapshot older = make_snapshot(1000);
  older.gauges = {{"exp.eta_s", 99.0}};
  Snapshot newer = make_snapshot(2000);
  newer.gauges = {{"exp.eta_s", 12.5}};

  // Newer `from` wins...
  Snapshot into = older;
  merge_snapshot(into, newer);
  EXPECT_DOUBLE_EQ(into.gauges[0].second, 12.5);
  EXPECT_EQ(into.meta.unix_us, 2000u);

  // ...older `from` does not (and ties keep `into`).
  Snapshot into2 = newer;
  const MergeStats ms = merge_snapshot(into2, older);
  EXPECT_DOUBLE_EQ(into2.gauges[0].second, 12.5);
  EXPECT_EQ(ms.gauges_taken, 0u);
  Snapshot tie = newer;
  Snapshot tie_from = newer;
  tie_from.gauges = {{"exp.eta_s", -1.0}};
  merge_snapshot(tie, tie_from);
  EXPECT_DOUBLE_EQ(tie.gauges[0].second, 12.5);
}

TEST(SnapshotMerge, HistogramsMergeBucketWiseOnIdenticalBounds) {
  Snapshot into = make_snapshot(1000);
  Snapshot from = make_snapshot(2000);
  from.histograms[0].data.counts = {1, 1, 1, 2};
  from.histograms[0].data.count = 5;
  from.histograms[0].data.sum = 500.0;

  const MergeStats ms = merge_snapshot(into, from);
  EXPECT_EQ(ms.histograms_merged, 1u);
  EXPECT_EQ(ms.bound_conflicts, 0u);
  const auto& h = into.histograms[0].data;
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{6, 4, 2, 2}));
  EXPECT_EQ(h.count, 14u);
  EXPECT_DOUBLE_EQ(h.sum, 542.0);
}

TEST(SnapshotMerge, ConflictingBoundsAreSkippedAndCounted) {
  Snapshot into = make_snapshot(1000);
  Snapshot from = make_snapshot(2000);
  from.histograms[0].data.bounds = {2.0, 20.0, 200.0};

  const Snapshot before = into;
  const MergeStats ms = merge_snapshot(into, from);
  EXPECT_EQ(ms.bound_conflicts, 1u);
  EXPECT_EQ(ms.histograms_merged, 0u);
  EXPECT_EQ(into.histograms[0].data.counts, before.histograms[0].data.counts);
  EXPECT_EQ(into.histograms[0].data.count, before.histograms[0].data.count);
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

  // Merging the parsed copy behaves exactly like merging the original.
  Snapshot a = make_snapshot(1000), b = make_snapshot(1000);
  merge_snapshot(a, s);
  merge_snapshot(b, parsed);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i)
    EXPECT_EQ(a.counters[i], b.counters[i]);

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
  EXPECT_EQ(ms.histograms_merged, 1u);

  const Snapshot now = reg.snapshot();
  std::uint64_t trials = 0, adopted = 0;
  for (const auto& [name, v] : now.counters) {
    if (name == "exp.trials_done") trials = v;
    if (name == "worker.only") adopted = v;
  }
  EXPECT_EQ(trials, 110u);
  EXPECT_EQ(adopted, 7u);
  for (const auto& h : now.histograms)
    if (h.name == "trial.latency") {
      EXPECT_EQ(h.data.count, 10u);
      EXPECT_DOUBLE_EQ(h.data.sum, 47.0);
    }

  // A stale snapshot cannot overwrite gauges past the cutoff.
  reg.gauge("exp.eta_s").set(77.0);
  const MergeStats stale = absorb_snapshot(from, /*newer_than_unix_us=*/9000);
  EXPECT_EQ(stale.gauges_taken, 0u);
  const Snapshot after = reg.snapshot();
  for (const auto& [name, v] : after.gauges)
    if (name == "exp.eta_s") EXPECT_DOUBLE_EQ(v, 77.0);
  reg.reset();
}

}  // namespace
