/// \file health.hpp
/// \brief Spatial device-health observability (paper Secs. V–VI: Fig. 6
///        fault taxonomy, Fig. 7 change-point detection, online testing).
///
/// CIM arrays degrade continuously in the field — endurance wear-out,
/// conductance drift, read/write disturb, sneak-path corruption — and the
/// aggregate counters of the metrics registry are blind to *where* in an
/// array that happens. A `HealthMonitor` is a per-array grid of relaxed
/// atomic accumulators holding:
///
///  - per-cell write/endurance **wear** counts (programming pulses seen),
///  - per-cell **drift** deltas: stored conductance minus the target of the
///    last program operation (uS) — programming error plus every disturb
///    step since,
///  - per-cell **disturb** event counts (read disturb, half-select write
///    disturb, coupling-fault victims),
///  - per-cell **wear-out** flags (the cell went hard-stuck in the field),
///  - per-column **ADC** conversion/saturation counters and accumulated
///    **sneak-path** current (uA·samples).
///
/// Monitors register in the process-wide `HealthRegistry` so exporters can
/// dump spatial heatmaps (obs/health_export: CSV + flat JSON via
/// `CIM_OBS_HEATMAP_FILE`) and the Prometheus endpoint (obs/prom.hpp) can
/// serve per-array summaries to a scraper, like production hardware.
///
/// Enablement: the `health` tier of CIM_OBS (`obs::health_enabled()`).
/// Instrumentation sites gate on one relaxed load exactly like spans; the
/// monitors themselves use relaxed atomics so a scrape (snapshot) may run
/// concurrently with a single-writer simulation thread without races.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cim::obs {

/// Spatial health accumulators for one rows x cols array (or a cols-wide
/// periphery when only column metrics are used). Writers are expected to
/// be single-threaded per monitor (one monitor per array, arrays are not
/// thread-safe anyway); readers (snapshot, exporters, the Prometheus
/// server thread) may run concurrently with the writer.
class HealthMonitor {
 public:
  HealthMonitor(std::string name, std::size_t rows, std::size_t cols);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  const std::string& name() const { return name_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // --- hot-path hooks (callers gate on obs::health_enabled()) --------------

  /// `pulses` programming pulses landed on (r, c) — endurance wear.
  void record_write(std::size_t r, std::size_t c, std::uint64_t pulses = 1);

  /// A program operation targeted conductance `g_target_us`; the cell ended
  /// at `g_actual_us`. Resets the drift baseline: drift = actual - target.
  void record_program(std::size_t r, std::size_t c, double g_target_us,
                      double g_actual_us);

  /// A disturb event moved (r, c) to `g_now_us`; drift tracks the delta
  /// against the last program target.
  void record_disturb(std::size_t r, std::size_t c, double g_now_us);

  /// The cell went hard-stuck in the field (endurance wear-out).
  void record_wearout(std::size_t r, std::size_t c);

  /// One ADC conversion on `col`; `clipped` when the input fell outside the
  /// converter's full-scale range (saturation/clipping).
  void record_adc_sample(std::size_t col, bool clipped);

  /// Sneak-path background/loop current observed on `col` this sample (uA).
  void record_sneak_current(std::size_t col, double ua);

  // --- scrape side ---------------------------------------------------------

  /// Copy of all accumulators plus derived summary statistics.
  struct Snapshot {
    std::string name;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::uint64_t> wear;      ///< rows*cols, row-major
    std::vector<std::uint64_t> disturbs;  ///< rows*cols
    std::vector<double> drift_us;         ///< rows*cols, signed
    std::vector<std::uint8_t> worn;       ///< rows*cols, 1 = wore out in field
    std::vector<std::uint64_t> adc_samples;  ///< cols
    std::vector<std::uint64_t> adc_clips;    ///< cols
    std::vector<double> sneak_ua;            ///< cols, accumulated
    // Summary (derived in snapshot(), consistent with the vectors above).
    std::uint64_t total_writes = 0;
    std::uint64_t total_disturbs = 0;
    std::uint64_t max_wear = 0;
    std::uint64_t worn_cells = 0;
    std::uint64_t total_adc_samples = 0;
    std::uint64_t total_adc_clips = 0;
    double mean_abs_drift_us = 0.0;
    double max_abs_drift_us = 0.0;
    double total_sneak_ua = 0.0;
  };
  Snapshot snapshot() const;

  void reset();

 private:
  std::size_t idx(std::size_t r, std::size_t c) const { return r * cols_ + c; }

  std::string name_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::atomic<std::uint64_t>> wear_;
  std::vector<std::atomic<std::uint64_t>> disturbs_;
  std::vector<std::atomic<double>> drift_us_;      ///< actual - target (uS)
  std::vector<std::atomic<double>> baseline_us_;   ///< last program target
  std::vector<std::atomic<std::uint8_t>> worn_;
  std::vector<std::atomic<std::uint64_t>> adc_samples_;
  std::vector<std::atomic<std::uint64_t>> adc_clips_;
  std::vector<std::atomic<double>> sneak_ua_;
};

/// Process-wide registry of health monitors, keyed by array name. Creation
/// locks; the returned references stay valid for the registry's lifetime.
class HealthRegistry {
 public:
  static HealthRegistry& global();

  /// Returns the named monitor, creating it with the given shape on first
  /// use. Shape of an existing monitor is not changed. Shared ownership:
  /// the instrumented array holds the pointer so a registry clear() cannot
  /// dangle its hooks.
  std::shared_ptr<HealthMonitor> monitor(std::string_view name,
                                         std::size_t rows, std::size_t cols);

  /// Stable handles to every registered monitor, in name order.
  std::vector<std::shared_ptr<HealthMonitor>> monitors() const;

  std::size_t size() const;

  /// Zeroes every monitor's accumulators (keeps registrations).
  void reset();
  /// Drops all monitors. Test-isolation helper; outstanding references from
  /// still-live arrays keep their monitor alive via shared ownership, but
  /// it will no longer be exported.
  void clear();

 private:
  HealthRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<HealthMonitor>, std::less<>> monitors_;
};

/// Process-unique default monitor name: "<prefix>.<N>" with a monotonically
/// increasing N per prefix-independent global sequence. Used by arrays that
/// were not given an explicit health name.
std::string next_health_name(const char* prefix);

// --- heatmap exporters (health_export.cpp) -----------------------------------

/// CSV heatmap of every registered monitor, one accumulator per line:
///   array,metric,row,col,value
/// Per-cell metrics (wear, disturbs, drift_us, worn) carry their cell
/// coordinates; per-column metrics (adc_samples, adc_clips, sneak_ua) use
/// row = -1. A header line is emitted first.
void write_health_heatmap_csv(std::ostream& os);

/// Flat-JSON heatmap dump: build meta plus, per array, the shape, the flat
/// row-major per-cell vectors and the per-column vectors, and the summary.
void write_health_json(std::ostream& os);
/// The same dump of the given arrays (the static wear certificate exports
/// its predicted bounds through it).
void write_health_json(std::ostream& os,
                       const std::vector<HealthMonitor::Snapshot>& arrays);

/// Honours the CIM_OBS_HEATMAP_FILE env hook: when set, health telemetry
/// is enabled and at least one monitor exists, writes the heatmap dump
/// through export_env_file (CSV when the path ends in ".csv", flat JSON
/// otherwise). Returns true when a file was written; a failed write throws.
bool export_health_heatmap_if_requested();

}  // namespace cim::obs
