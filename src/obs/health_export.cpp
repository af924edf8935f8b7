/// \file health_export.cpp
/// \brief Spatial heatmap exporters (CSV + flat JSON) over the
///        HealthRegistry. Schemas documented in DESIGN.md §8.
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::obs {

namespace {

using record::json_string;

/// A floating-point value as a JSON number, any other as an unsigned one.
template <typename T>
std::string num(T v) {
  if constexpr (std::is_floating_point_v<T>)
    return record::json_num(v);
  else
    return std::to_string(static_cast<std::uint64_t>(v));
}

template <typename T>
void json_array(std::ostream& os, const std::vector<T>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i != 0 ? "," : "") << num(v[i]);
  os << "]";
}

void csv_cell_metric(std::ostream& os, const std::string& array,
                     const char* metric, std::size_t rows, std::size_t cols,
                     const auto& values) {
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      os << array << ',' << metric << ',' << r << ',' << c << ','
         << num(values[r * cols + c]) << '\n';
}

void csv_col_metric(std::ostream& os, const std::string& array,
                    const char* metric, std::size_t cols, const auto& values) {
  for (std::size_t c = 0; c < cols; ++c)
    os << array << ',' << metric << ",-1," << c << ',' << num(values[c])
       << '\n';
}

}  // namespace

void write_health_heatmap_csv(std::ostream& os) {
  os << "array,metric,row,col,value\n";
  for (const auto& mon : HealthRegistry::global().monitors()) {
    const HealthMonitor::Snapshot s = mon->snapshot();
    csv_cell_metric(os, s.name, "wear", s.rows, s.cols, s.wear);
    csv_cell_metric(os, s.name, "disturbs", s.rows, s.cols, s.disturbs);
    csv_cell_metric(os, s.name, "drift_us", s.rows, s.cols, s.drift_us);
    csv_cell_metric(os, s.name, "worn", s.rows, s.cols, s.worn);
    csv_col_metric(os, s.name, "adc_samples", s.cols, s.adc_samples);
    csv_col_metric(os, s.name, "adc_clips", s.cols, s.adc_clips);
    csv_col_metric(os, s.name, "sneak_ua", s.cols, s.sneak_ua);
  }
}

void write_health_json(std::ostream& os) {
  std::vector<HealthMonitor::Snapshot> arrays;
  for (const auto& mon : HealthRegistry::global().monitors())
    arrays.push_back(mon->snapshot());
  write_health_json(os, arrays);
}

void write_health_json(std::ostream& os,
                       const std::vector<HealthMonitor::Snapshot>& arrays) {
  const BuildInfo info = build_info();
  os << "{\"meta\":{\"git_sha\":" << json_string(info.git_sha)
     << ",\"build_type\":" << json_string(info.build_type)
     << ",\"schema\":\"cim-health-heatmap-v1\"},\"arrays\":[";
  bool first = true;
  for (const HealthMonitor::Snapshot& s : arrays) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << json_string(s.name) << ",\"rows\":" << s.rows
       << ",\"cols\":" << s.cols;
    os << ",\"wear\":";
    json_array(os, s.wear);
    os << ",\"disturbs\":";
    json_array(os, s.disturbs);
    os << ",\"drift_us\":";
    json_array(os, s.drift_us);
    os << ",\"worn\":";
    json_array(os, s.worn);
    os << ",\"adc_samples\":";
    json_array(os, s.adc_samples);
    os << ",\"adc_clips\":";
    json_array(os, s.adc_clips);
    os << ",\"sneak_ua\":";
    json_array(os, s.sneak_ua);
    os << ",\"summary\":{";
    os << "\"total_writes\":" << s.total_writes;
    os << ",\"total_disturbs\":" << s.total_disturbs;
    os << ",\"max_wear\":" << s.max_wear;
    os << ",\"worn_cells\":" << s.worn_cells;
    os << ",\"total_adc_samples\":" << s.total_adc_samples;
    os << ",\"total_adc_clips\":" << s.total_adc_clips;
    os << ",\"mean_abs_drift_us\":" << num(s.mean_abs_drift_us);
    os << ",\"max_abs_drift_us\":" << num(s.max_abs_drift_us);
    os << ",\"total_sneak_ua\":" << num(s.total_sneak_ua);
    os << "}}";
  }
  os << "]}\n";
}

bool export_health_heatmap_if_requested() {
  if (!health_enabled() || HealthRegistry::global().size() == 0) return false;
  return export_env_file("CIM_OBS_HEATMAP_FILE",
                         [](std::ostream& os, std::string_view path) {
                           if (path.ends_with(".csv"))
                             write_health_heatmap_csv(os);
                           else
                             write_health_json(os);
                         });
}

}  // namespace cim::obs
