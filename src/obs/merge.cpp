/// \file merge.cpp
/// \brief Deterministic metric-snapshot merge and the snapshot-JSON parser
///        (on the record codec, obs/record.hpp).
///
/// Worker processes of the campaign engine (src/exp/) ship their registry
/// snapshot to the parent over the result pipe as flat JSON; the parent
/// parses it here and folds it into its own telemetry. The merge rules are
/// type-aware: counters and span/component aggregates are *totals* and add;
/// histograms add bucket-wise but only over identical bucket layouts;
/// gauges are instantaneous values, so the snapshot captured later wins.
#include <algorithm>
#include <map>
#include <string>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::obs {

namespace {

bool same_bounds(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

Component component_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kComponentCount; ++i)
    if (component_name(static_cast<Component>(i)) == name)
      return static_cast<Component>(i);
  return Component::kOther;
}

}  // namespace

MergeStats merge_snapshot(Snapshot& into, const Snapshot& from) {
  MergeStats ms;
  const bool from_newer = from.meta.unix_us > into.meta.unix_us;

  // Counters: totals add. Name lists are sorted (registry snapshot
  // contract), so a sorted-map fold keeps the output sorted too.
  std::map<std::string, std::uint64_t> counters(into.counters.begin(),
                                                into.counters.end());
  for (const auto& [name, v] : from.counters) {
    counters[name] += v;
    ++ms.counters_added;
  }
  into.counters.assign(counters.begin(), counters.end());

  // Gauges: last writer (by capture time) wins; ties keep `into`.
  std::map<std::string, double> gauges(into.gauges.begin(), into.gauges.end());
  for (const auto& [name, v] : from.gauges) {
    const auto it = gauges.find(name);
    if (it == gauges.end() || from_newer) {
      gauges[name] = v;
      ++ms.gauges_taken;
    }
  }
  into.gauges.assign(gauges.begin(), gauges.end());

  // Histograms: bucket-wise add over identical bounds only.
  std::map<std::string, Histogram::Snapshot> hists;
  for (auto& h : into.histograms) hists.emplace(h.name, std::move(h.data));
  for (const auto& h : from.histograms) {
    auto it = hists.find(h.name);
    if (it == hists.end()) {
      hists.emplace(h.name, h.data);
      ++ms.histograms_merged;
      continue;
    }
    if (!same_bounds(it->second.bounds, h.data.bounds) ||
        it->second.counts.size() != h.data.counts.size()) {
      ++ms.bound_conflicts;
      continue;
    }
    for (std::size_t i = 0; i < h.data.counts.size(); ++i)
      it->second.counts[i] += h.data.counts[i];
    it->second.count += h.data.count;
    it->second.sum += h.data.sum;
    ++ms.histograms_merged;
  }
  into.histograms.clear();
  for (auto& [name, data] : hists)
    into.histograms.push_back({name, std::move(data)});

  // Spans: aggregates add; a span's component tag comes from whichever
  // side registered it first (they agree in practice — same code).
  std::map<std::string, Snapshot::SpanRow> spans;
  for (auto& row : into.spans) spans.emplace(row.name, std::move(row));
  for (const auto& row : from.spans) {
    auto it = spans.find(row.name);
    if (it == spans.end()) {
      spans.emplace(row.name, row);
    } else {
      it->second.count += row.count;
      it->second.wall_ns += row.wall_ns;
      it->second.sim_time_ns += row.sim_time_ns;
      it->second.energy_pj += row.energy_pj;
    }
    ++ms.spans_merged;
  }
  into.spans.clear();
  for (auto& [name, row] : spans) into.spans.push_back(std::move(row));

  // Components: fixed six-slot vocabulary, add slot-wise.
  for (const auto& row : from.components) {
    bool found = false;
    for (auto& dst : into.components) {
      if (dst.comp != row.comp) continue;
      dst.events += row.events;
      dst.wall_ns += row.wall_ns;
      dst.sim_time_ns += row.sim_time_ns;
      dst.energy_pj += row.energy_pj;
      found = true;
      break;
    }
    if (!found) into.components.push_back(row);
  }

  if (from_newer) into.meta.unix_us = from.meta.unix_us;
  return ms;
}

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
