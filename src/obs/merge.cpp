/// \file merge.cpp
/// \brief The snapshot-JSON parser (on the record codec, obs/record.hpp)
///        and `absorb_snapshot`, which folds a parsed snapshot into the
///        live registry.
///
/// Worker processes of the campaign engine (src/exp/) ship their registry
/// snapshot to the parent over the result pipe as flat JSON; the parent
/// parses it here and folds it into its own telemetry. The merge rules are
/// type-aware: counters and span/component aggregates are *totals* and add;
/// histograms add bucket-wise but only over identical bucket layouts;
/// gauges are instantaneous values, so only a snapshot captured after the
/// caller's cutoff sets them.
#include <algorithm>
#include <string>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::obs {

namespace {

Component component_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kComponentCount; ++i)
    if (component_name(static_cast<Component>(i)) == name)
      return static_cast<Component>(i);
  return Component::kOther;
}

}  // namespace

bool parse_snapshot_json(std::string_view text, Snapshot& out,
                         std::string* error) {
  Snapshot s;
  const auto decode = [&](const json::Value& doc) {
    const json::Value& meta = doc.at("meta");
    s.meta.git_sha = meta.at("git_sha").as_string();
    s.meta.build_type = meta.at("build_type").as_string();
    s.meta.threads = meta.at("threads").as_u64();
    s.meta.simd_isa = meta.at("simd_isa").as_string();
    s.meta.mode = meta.at("cim_obs").as_string();
    if (meta.contains("unix_us"))  // absent in pre-PR10 exports
      s.meta.unix_us = meta.at("unix_us").as_u64();

    for (const auto& [name, v] : doc.at("counters").as_object())
      s.counters.emplace_back(name, v.as_u64());
    for (const auto& [name, v] : doc.at("gauges").as_object())
      s.gauges.emplace_back(name, v.as_number());
    for (const auto& [name, v] : doc.at("histograms").as_object()) {
      Snapshot::Hist h;
      h.name = name;
      for (const auto& b : v.at("bounds").as_array())
        h.data.bounds.push_back(b.as_number());
      for (const auto& c : v.at("counts").as_array())
        h.data.counts.push_back(c.as_u64());
      h.data.count = v.at("count").as_u64();
      h.data.sum = v.at("sum").as_number();
      if (h.data.counts.size() != h.data.bounds.size() + 1)
        throw std::runtime_error("histogram '" + name +
                                 "': counts/bounds size mismatch");
      s.histograms.push_back(std::move(h));
    }
    for (const auto& [name, v] : doc.at("spans").as_object()) {
      Snapshot::SpanRow row;
      row.name = name;
      row.comp = component_from_name(v.at("component").as_string());
      row.count = v.at("count").as_u64();
      row.wall_ns = v.at("wall_ns").as_number();
      row.sim_time_ns = v.at("sim_time_ns").as_number();
      row.energy_pj = v.at("energy_pj").as_number();
      s.spans.push_back(std::move(row));
    }
    for (const auto& [name, v] : doc.at("components").as_object()) {
      Snapshot::ComponentRow row;
      row.comp = component_from_name(name);
      // Unknown names fold into kOther, which may then appear twice.
      for (const auto& prev : s.components)
        if (prev.comp == row.comp)
          throw std::runtime_error("component '" + name +
                                   "' repeats another");
      row.events = v.at("events").as_u64();
      row.wall_ns = v.at("wall_ns").as_number();
      row.sim_time_ns = v.at("sim_time_ns").as_number();
      row.energy_pj = v.at("energy_pj").as_number();
      s.components.push_back(row);
    }
    // Component order, as the registry writes them.
    std::sort(s.components.begin(), s.components.end(),
              [](const auto& a, const auto& b) { return a.comp < b.comp; });
  };
  try {
    record::decode_json(text, "snapshot-json", decode);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  out = std::move(s);
  return true;
}

MergeStats absorb_snapshot(const Snapshot& from,
                           std::uint64_t newer_than_unix_us) {
  MergeStats ms;
  Registry& reg = Registry::global();
  for (const auto& [name, v] : from.counters) {
    if (v != 0) reg.counter(name).add(v);
    ++ms.counters_added;
  }
  if (from.meta.unix_us > newer_than_unix_us) {
    for (const auto& [name, v] : from.gauges) {
      reg.gauge(name).set(v);
      ++ms.gauges_taken;
    }
  }
  for (const auto& h : from.histograms) {
    Histogram& dst = reg.histogram(h.name, h.data.bounds);
    if (dst.absorb(h.data))
      ++ms.histograms_merged;
    else
      ++ms.bound_conflicts;  // name already registered with another layout
  }
  for (const auto& row : from.spans) {
    SpanStat& st = reg.span_stat(row.name, row.comp);
    st.count.add(row.count);
    st.wall_ns.add(row.wall_ns);
    st.sim_time_ns.add(row.sim_time_ns);
    st.energy_pj.add(row.energy_pj);
    ++ms.spans_merged;
  }
  for (const auto& row : from.components) {
    ComponentAgg& agg = reg.component(row.comp);
    agg.events.add(row.events);
    agg.wall_ns.add(row.wall_ns);
    agg.sim_time_ns.add(row.sim_time_ns);
    agg.energy_pj.add(row.energy_pj);
  }
  return ms;
}

}  // namespace cim::obs
