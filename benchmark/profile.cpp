/// \file profile.cpp
/// \brief Exclusive per-layer profile of a traced phase.
///
/// The inputs are the library's per-name span rows (inclusive wall time
/// per span name, from obs::snapshot().spans) and the driver's own timed
/// public calls. A workload's nesting table turns them into self time per
/// layer. The per-component rows of the snapshot are never read: they add
/// inclusive time of nested spans and so count it more than once.
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cimbench.hpp"
#include "obs/obs.hpp"

namespace cimbench {

namespace {

struct Row {
  double count = 0.0;
  double ns = 0.0;
};
using Rows = std::map<std::string, Row, std::less<>>;

/// Sum over every row whose name starts with `prefix`.
Row sum_prefix(const Rows& rows, std::string_view prefix) {
  Row sum;
  for (auto it = rows.lower_bound(prefix);
       it != rows.end() && std::string_view(it->first).starts_with(prefix);
       ++it) {
    sum.count += it->second.count;
    sum.ns += it->second.ns;
  }
  return sum;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double counter(const Counters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

/// Every layer the profile reports, in output order. "bench" is the
/// harness: time inside Workload::step outside the timed public calls
/// (input generation and output checks).
const std::vector<const char*>& profile_layers() {
  static const std::vector<const char*> layers{
      "core.mlp",       "core.system",    "core.tile",     "crossbar.read",
      "crossbar.cache", "crossbar.write", "serve",         "eda.flow",
      "eda.synth",      "eda.map",        "eda.exec",      "bench"};
  return layers;
}

}  // namespace

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const char* layer : profile_layers()) {
      d.push_back({std::string(layer) + ".self_us_per_op", "us", "lower"});
      d.push_back({std::string(layer) + ".share", "fraction", "lower"});
    }
    d.push_back({"core.system.calls_per_op", "count", "lower"});
    d.push_back({"core.tile.cycles_per_op", "count", "lower"});
    d.push_back({"core.tile.host_ns_per_cycle", "ns", "lower"});
    d.push_back({"crossbar.read.calls_per_op", "count", "lower"});
    d.push_back({"crossbar.cache.rebuilds_per_op", "count", "lower"});
    d.push_back({"crossbar.cache.delta_frac", "fraction", "higher"});
    d.push_back({"crossbar.cache.dirty_cells_per_delta", "count", "lower"});
    d.push_back({"crossbar.write.pulses_per_write", "count", "lower"});
    d.push_back({"crossbar.write.write_miss_frac", "fraction", "lower"});
    d.push_back({"serve.dispatches_per_op", "count", "lower"});
    d.push_back({"serve.mean_batch", "count", "higher"});
    d.push_back({"serve.sim_queue_wait_share", "fraction", "lower"});
    d.push_back({"eda.exec.calls_per_op", "count", "lower"});
    d.push_back({"obs.overhead_pct", "%", "lower"});
    return d;
  }();
  return defs;
}

Profile build_profile(const std::vector<LayerDef>& table,
                      const TraceInput& in) {
  Rows rows;
  for (const auto& s : in.spans->spans)
    rows[s.name] = {static_cast<double>(s.count), s.wall_ns};
  for (std::size_t c = 0; c < kCallCount; ++c) {
    const auto call = static_cast<Call>(c);
    rows[call_row_name(call)] = {static_cast<double>(in.calls->count(call)),
                                 in.calls->ns(call)};
  }

  std::map<std::string, double, std::less<>> self;
  for (const LayerDef& def : table) {
    double ns = 0.0;
    for (const char* p : def.plus) ns += sum_prefix(rows, p).ns;
    for (const char* m : def.minus) ns -= sum_prefix(rows, m).ns;
    self[def.layer] = ns;
  }
  self["bench"] = in.step_ns - in.calls->total_ns();

  // The tables' self times telescope to the timed calls they cover and
  // "bench" is measured apart from them, so the sum matches the wall only
  // when every timed call is covered exactly once and the loop around
  // step() costs little. Work a span does not cover stays in its parent's
  // self time by definition; no check can see it.
  Profile prof;
  double sum = 0.0;
  for (const char* layer : profile_layers()) {
    const double ns = self[layer];
    prof.self_ns.emplace_back(layer, ns);
    sum += ns;
    if (ns < 0.0 && prof.problem.empty())
      prof.problem = std::string("negative self time in ") + layer;
  }
  if (prof.problem.empty() && std::abs(sum - in.wall_ns) > 0.02 * in.wall_ns)
    prof.problem = "self times miss the traced wall by more than 2%";

  const double ops = static_cast<double>(in.ops);
  std::map<std::string, double, std::less<>> m;
  for (const auto& [layer, ns] : prof.self_ns) {
    m[layer + ".self_us_per_op"] = ratio(ns, ops) / 1e3;
    m[layer + ".share"] = ratio(ns, in.wall_ns);
  }
  const Row vmm = sum_prefix(rows, "crossbar.vmm");
  const Row rebuilds = sum_prefix(rows, "crossbar.cache.rebuild");
  const Row deltas = sum_prefix(rows, "crossbar.cache.delta");
  // Each bit-serial tile cycle reads both arrays of the differential pair.
  const double cycles =
      sum_prefix(rows, "tile.vmm_int").count > 0.0 ? vmm.count / 2.0 : 0.0;
  const Counters& c = in.counters;
  m["core.system.calls_per_op"] =
      ratio(sum_prefix(rows, "system.vmm_int").count, ops);
  m["core.tile.cycles_per_op"] = ratio(cycles, ops);
  m["core.tile.host_ns_per_cycle"] = ratio(self["core.tile"], cycles);
  m["crossbar.read.calls_per_op"] = ratio(vmm.count, ops);
  m["crossbar.cache.rebuilds_per_op"] = ratio(rebuilds.count, ops);
  m["crossbar.cache.delta_frac"] =
      ratio(deltas.count, deltas.count + rebuilds.count);
  m["crossbar.cache.dirty_cells_per_delta"] =
      ratio(counter(c, "crossbar.dirty_cells"), counter(c, "crossbar.deltas"));
  m["crossbar.write.pulses_per_write"] =
      ratio(counter(c, "crossbar.pulses"), counter(c, "crossbar.writes"));
  m["crossbar.write.write_miss_frac"] =
      ratio(counter(c, "crossbar.write_misses"), counter(c, "crossbar.writes"));
  m["serve.dispatches_per_op"] = ratio(counter(c, "serve.dispatches"), ops);
  m["serve.mean_batch"] =
      ratio(counter(c, "serve.completed"), counter(c, "serve.dispatches"));
  m["serve.sim_queue_wait_share"] =
      ratio(counter(c, "serve.queue_wait_ns"), counter(c, "serve.latency_ns"));
  m["eda.exec.calls_per_op"] = ratio(sum_prefix(rows, "eda.exec.").count, ops);
  m["obs.overhead_pct"] =
      (ratio(in.traced_op_ref_ns, in.untraced_op_ref_ns) - 1.0) * 100.0;

  for (const MetricDef& def : per_layer_metrics()) {
    const auto it = m.find(def.name);
    if (it == m.end())
      throw std::logic_error("per-layer metric not computed: " + def.name);
    prof.metrics.emplace_back(def.name, it->second);
  }
  return prof;
}

}  // namespace cimbench
