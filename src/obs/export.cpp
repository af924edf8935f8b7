/// \file export.cpp
/// \brief Telemetry exporters: flat JSON snapshot, Chrome trace_event JSON,
///        and the registry-emitted BENCH_JSON line.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "obs/prom.hpp"
#include "obs/record.hpp"
#include "obs/trace_events.hpp"

namespace cim::obs {

namespace {

using record::json_string;

/// Six significant digits for the Chrome trace and BENCH_JSON extras (no
/// inf/nan — clamp to 0 to stay valid).
std::string json_num6(double v) {
  if (!(v > -1e308 && v < 1e308)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void write_meta_fields(std::ostream& os, const Snapshot::Meta& meta) {
  os << "\"git_sha\":" << json_string(meta.git_sha) << ","
     << "\"build_type\":" << json_string(meta.build_type) << ","
     << "\"threads\":" << meta.threads << ","
     << "\"simd_isa\":" << json_string(meta.simd_isa) << ","
     << "\"cim_obs\":" << json_string(meta.mode) << ","
     << "\"unix_us\":" << meta.unix_us;
}

}  // namespace

bool write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  // Write to <path>.tmp and rename over the target: an interrupted process
  // can leave a stale .tmp behind but never a truncated export at `path`.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    writer(f);
    f.flush();
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void write_snapshot_json(std::ostream& os, const Snapshot& s) {
  os << "{\"meta\":{";
  write_meta_fields(os, s.meta);
  os << "},\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    os << (first ? "" : ",") << json_string(name) << ":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    os << (first ? "" : ",") << json_string(name) << ":"
       << record::json_num(v);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : s.histograms) {
    os << (first ? "" : ",") << json_string(h.name) << ":{";
    os << "\"bounds\":[";
    for (std::size_t i = 0; i < h.data.bounds.size(); ++i)
      os << (i != 0 ? "," : "") << record::json_num(h.data.bounds[i]);
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.data.counts.size(); ++i)
      os << (i != 0 ? "," : "") << h.data.counts[i];
    os << "],\"count\":" << h.data.count
       << ",\"sum\":" << record::json_num(h.data.sum) << "}";
    first = false;
  }
  os << "},\"spans\":{";
  first = true;
  for (const auto& row : s.spans) {
    os << (first ? "" : ",") << json_string(row.name) << ":{"
       << "\"component\":\"" << component_name(row.comp) << "\","
       << "\"count\":" << row.count << ","
       << "\"wall_ns\":" << record::json_num(row.wall_ns) << ","
       << "\"sim_time_ns\":" << record::json_num(row.sim_time_ns) << ","
       << "\"energy_pj\":" << record::json_num(row.energy_pj) << "}";
    first = false;
  }
  os << "},\"components\":{";
  first = true;
  for (const auto& row : s.components) {
    os << (first ? "" : ",") << "\"" << component_name(row.comp) << "\":{"
       << "\"events\":" << row.events << ","
       << "\"wall_ns\":" << record::json_num(row.wall_ns) << ","
       << "\"sim_time_ns\":" << record::json_num(row.sim_time_ns) << ","
       << "\"energy_pj\":" << record::json_num(row.energy_pj) << "}";
    first = false;
  }
  os << "}}\n";
}

void write_snapshot_json(std::ostream& os) { write_snapshot_json(os, snapshot()); }

void write_chrome_trace(std::ostream& os) {
  const auto events = detail::collect_trace_events();
  const Snapshot::Meta meta = snapshot().meta;
  const std::uint64_t dropped =
      Registry::global().counter("obs.trace.dropped").value();
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  write_meta_fields(os, meta);
  os << ",\"dropped_events\":" << dropped;
  os << "},\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    // ts/dur are microseconds in the trace_event format; fractional values
    // carry the ns resolution.
    os << (first ? "" : ",") << "\n{\"name\":"
       << json_string(e.name != nullptr ? e.name : "span") << ","
       << "\"cat\":\"" << component_name(e.comp) << "\",";
    if (e.ph == 's' || e.ph == 'f') {
      // Flow arrow: a start/finish pair sharing an id binds the slices
      // enclosing its timestamps (bp "e": attach to the enclosing slice).
      os << "\"ph\":\"" << e.ph << "\",\"id\":" << e.flow_id
         << (e.ph == 'f' ? ",\"bp\":\"e\"" : "") << ",\"pid\":" << e.pid
         << ",\"tid\":" << e.tid << ","
         << "\"ts\":" << json_num6(static_cast<double>(e.ts_ns) / 1e3) << "}";
    } else {
      // Complete ("X") span.
      os << "\"ph\":\"X\",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ","
         << "\"ts\":" << json_num6(static_cast<double>(e.ts_ns) / 1e3) << ","
         << "\"dur\":" << json_num6(static_cast<double>(e.dur_ns) / 1e3) << ","
         << "\"args\":{\"energy_pj\":" << json_num6(e.energy_pj) << "}}";
    }
    first = false;
  }
  os << "\n]}\n";
}

std::string bench_json_line(
    const std::string& bench, double wall_ms, double ops,
    const std::vector<std::pair<std::string, double>>& extras) {
  const double ops_per_s = wall_ms > 0.0 ? ops / (wall_ms / 1e3) : 0.0;
  const BuildInfo info = build_info();
  Registry& reg = Registry::global();
  std::ostringstream os;
  char buf[64];
  os << "BENCH_JSON {\"bench\":" << json_string(bench) << ",";
  std::snprintf(buf, sizeof buf, "%.3f", wall_ms);
  os << "\"wall_ms\":" << buf << ",";
  std::snprintf(buf, sizeof buf, "%.0f", ops);
  os << "\"ops\":" << buf << ",";
  std::snprintf(buf, sizeof buf, "%.1f", ops_per_s);
  os << "\"ops_per_s\":" << buf << ",";
  os << "\"threads\":" << info.threads << ",";
  std::snprintf(buf, sizeof buf, "%.1f", peak_rss_mb());
  os << "\"peak_rss_mb\":" << buf << ",";
  os << "\"cache_full_rebuilds\":" << reg.counter("cache.full_rebuilds").value()
     << ",";
  os << "\"cache_delta_updates\":" << reg.counter("cache.delta_updates").value()
     << ",";
  os << "\"git_sha\":" << json_string(info.git_sha) << ",";
  os << "\"build_type\":" << json_string(info.build_type) << ",";
  os << "\"simd_isa\":" << json_string(info.simd_isa);
  for (const auto& [key, value] : extras)
    os << "," << json_string(key) << ":" << json_num6(value);
  os << "}";
  return os.str();
}

std::string bench_json_line(
    const std::string& bench, double wall_ms, double ops,
    std::initializer_list<std::pair<const char*, double>> extras) {
  std::vector<std::pair<std::string, double>> vec;
  vec.reserve(extras.size());
  for (const auto& [key, value] : extras) vec.emplace_back(key, value);
  return bench_json_line(bench, wall_ms, ops, vec);
}

void emit_bench_json(
    const std::string& bench, double wall_ms, double ops,
    const std::vector<std::pair<std::string, double>>& extras) {
  std::printf("%s\n", bench_json_line(bench, wall_ms, ops, extras).c_str());

  // Exporter hooks: every bench dumps telemetry when asked to, without
  // per-bench wiring. All file exports are crash-safe (temp + rename).
  if (!enabled()) return;
  if (const char* path = std::getenv("CIM_OBS_SNAPSHOT_FILE");
      path != nullptr && *path != '\0') {
    write_file_atomic(path, [](std::ostream& os) { write_snapshot_json(os); });
  }
  if (const char* path = std::getenv("CIM_OBS_TRACE_FILE");
      path != nullptr && *path != '\0' && trace_enabled()) {
    write_file_atomic(path, [](std::ostream& os) { write_chrome_trace(os); });
  }
  if (const char* path = std::getenv("CIM_OBS_PROM_FILE");
      path != nullptr && *path != '\0') {
    write_prometheus_file(path);
  }
  export_health_heatmap_if_requested();
}

void emit_bench_json(
    const std::string& bench, double wall_ms, double ops,
    std::initializer_list<std::pair<const char*, double>> extras) {
  std::vector<std::pair<std::string, double>> vec;
  vec.reserve(extras.size());
  for (const auto& [key, value] : extras) vec.emplace_back(key, value);
  emit_bench_json(bench, wall_ms, ops, vec);
}

}  // namespace cim::obs
