#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/record.hpp"
#include "obs/trace_events.hpp"
#include "util/simd_dispatch.hpp"
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace cim::obs {

namespace detail {

int init_mode_from_env() {
  int m = static_cast<int>(Mode::kOff);
  if (const char* env = std::getenv("CIM_OBS"); env != nullptr) {
    // Comma-separated tier list; every recognized tier ORs its bits in.
    std::string_view rest(env);
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string_view tok = rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view{}
                                             : rest.substr(comma + 1);
      if (tok == "1" || tok == "on" || tok == "metrics")
        m |= static_cast<int>(Mode::kMetrics);
      else if (tok == "trace")
        m |= static_cast<int>(Mode::kTrace);
      else if (tok == "health")
        m |= static_cast<int>(Mode::kHealth);
      else if (tok == "all")
        m |= static_cast<int>(Mode::kTraceHealth);
      // anything else (incl. "off"/"0") adds nothing
    }
  }
  // First initialiser wins; a concurrent set_mode() is not overwritten.
  int expected = -1;
  detail::g_mode.compare_exchange_strong(expected, m,
                                         std::memory_order_relaxed);
  return detail::g_mode.load(std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

}  // namespace detail

Mode mode() { return static_cast<Mode>(detail::mode_int()); }

void set_mode(Mode m) {
  detail::g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}

std::string_view component_name(Component c) {
  switch (c) {
    case Component::kArray: return "array";
    case Component::kAdc: return "adc";
    case Component::kDac: return "dac";
    case Component::kDigital: return "digital";
    case Component::kInterconnect: return "interconnect";
    case Component::kOther: return "other";
  }
  return "unknown";
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_ = std::vector<Counter>(bounds_.size() + 1);
}

void Histogram::observe(double v) noexcept {
  // NaN compares false against every bound, which the search loop would
  // file under bucket 0; the documented semantics put it in overflow.
  std::size_t b = std::isnan(v) ? bounds_.size() : 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  counts_[b].add(1);
  count_.add(1);
  sum_.add(v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) s.counts.push_back(c.value());
  s.count = count_.value();
  s.sum = sum_.value();
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0 || bounds.empty() || counts.size() != bounds.size() + 1)
    return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    const double in_bucket = static_cast<double>(counts[b]);
    if (cum + in_bucket >= rank && in_bucket > 0.0) {
      const double lo = b > 0 ? bounds[b - 1] : std::min(bounds[0], 0.0);
      const double hi = bounds[b];
      return lo + (hi - lo) * ((rank - cum) / in_bucket);
    }
    cum += in_bucket;
  }
  // Rank fell in the overflow bucket: the layout cannot resolve past the
  // last finite bound (Prometheus clamps the same way).
  return bounds.back();
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.reset();
  count_.reset();
  sum_.reset();
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::global() {
  static Registry* reg = new Registry();  // leaked: usable during teardown
  return *reg;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::vector<double>(
                          bounds.begin(), bounds.end())))
             .first;
  return *it->second;
}

SpanStat& Registry::span_stat(std::string_view name, Component comp) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = spans_.find(name);
  if (it == spans_.end()) {
    auto entry = std::make_unique<SpanEntry>();
    entry->comp = comp;
    it = spans_.emplace(std::string(name), std::move(entry)).first;
  }
  return it->second->stat;
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  const BuildInfo info = build_info();
  s.meta.git_sha = info.git_sha;
  s.meta.build_type = info.build_type;
  s.meta.threads = info.threads;
  s.meta.simd_isa = info.simd_isa;
  s.meta.unix_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const int m = static_cast<int>(obs::mode());
  if (m == 0)
    s.meta.mode = "off";
  else if ((m & 6) == 6)
    s.meta.mode = "trace+health";
  else if ((m & 2) != 0)
    s.meta.mode = "trace";
  else if ((m & 4) != 0)
    s.meta.mode = "health";
  else
    s.meta.mode = "metrics";

  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_)
    s.histograms.push_back({name, h->snapshot()});
  for (const auto& [name, e] : spans_) {
    Snapshot::SpanRow row;
    row.name = name;
    row.comp = e->comp;
    row.count = e->stat.count.value();
    row.wall_ns = e->stat.wall_ns.value();
    row.sim_time_ns = e->stat.sim_time_ns.value();
    row.energy_pj = e->stat.energy_pj.value();
    s.spans.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    Snapshot::ComponentRow row;
    row.comp = static_cast<Component>(i);
    row.events = components_[i].events.value();
    row.wall_ns = components_[i].wall_ns.value();
    row.sim_time_ns = components_[i].sim_time_ns.value();
    row.energy_pj = components_[i].energy_pj.value();
    s.components.push_back(row);
  }
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, e] : spans_) {
    e->stat.count.reset();
    e->stat.wall_ns.reset();
    e->stat.sim_time_ns.reset();
    e->stat.energy_pj.reset();
  }
  for (auto& c : components_) {
    c.events.reset();
    c.wall_ns.reset();
    c.sim_time_ns.reset();
    c.energy_pj.reset();
  }
  detail::clear_trace_events();
}

Snapshot snapshot() { return Registry::global().snapshot(); }
void reset() { Registry::global().reset(); }

// --- attribution -------------------------------------------------------------

void attribute(Component c, double sim_time_ns, double energy_pj) {
  if (!enabled()) return;
  ComponentAgg& agg = Registry::global().component(c);
  agg.events.add(1);
  agg.sim_time_ns.add(sim_time_ns);
  agg.energy_pj.add(energy_pj);
}

std::vector<BreakdownRow> breakdown() {
  Registry& reg = Registry::global();
  double total_e = 0.0;
  double total_t = 0.0;
  std::vector<BreakdownRow> rows;
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    const ComponentAgg& agg = reg.component(static_cast<Component>(i));
    BreakdownRow row;
    row.comp = static_cast<Component>(i);
    row.events = agg.events.value();
    row.sim_time_ns = agg.sim_time_ns.value();
    row.energy_pj = agg.energy_pj.value();
    if (row.events == 0) continue;
    total_e += row.energy_pj;
    total_t += row.sim_time_ns;
    rows.push_back(row);
  }
  for (auto& row : rows) {
    row.energy_share = total_e > 0.0 ? row.energy_pj / total_e : 0.0;
    row.time_share = total_t > 0.0 ? row.sim_time_ns / total_t : 0.0;
  }
  return rows;
}

// --- build metadata ----------------------------------------------------------

#ifndef CIM_GIT_SHA
#define CIM_GIT_SHA "unknown"
#endif
#ifndef CIM_BUILD_TYPE
#define CIM_BUILD_TYPE "unknown"
#endif

BuildInfo build_info() {
  BuildInfo info;
  info.git_sha = CIM_GIT_SHA;
  info.build_type = CIM_BUILD_TYPE;
  info.threads = 0;
  if (const auto n =
          record::env_u64("CIM_THREADS", std::getenv("CIM_THREADS")))
    info.threads = static_cast<std::size_t>(std::min<std::uint64_t>(*n, 1024));
  if (info.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    info.threads = hw > 0 ? hw : 1;
  }
  info.simd_isa = util::simd::active_isa_name();
  return info;
}

}  // namespace cim::obs
