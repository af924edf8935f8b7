/// \file prom.hpp
/// \brief Prometheus text-format (exposition format 0.0.4) exporter over the
///        whole cim::obs registry + health summaries, with two delivery
///        paths:
///
///  - a one-shot writer (`write_prometheus_text`, env hook
///    `CIM_OBS_PROM_FILE`) for batch jobs, and
///  - a minimal blocking TCP endpoint (`PromServer`, env hook
///    `CIM_OBS_PROM_PORT`) so long-running `CimSystem` processes can be
///    scraped like production hardware.
///
/// Naming scheme (documented in DESIGN.md §8):
///  - every metric gets a `cim_` prefix; registry dots become underscores
///    and all other invalid characters are replaced by `_`
///    (e.g. counter "crossbar.writes" -> `cim_crossbar_writes_total`),
///  - counters get the conventional `_total` suffix, gauges none,
///  - histograms expand to cumulative `_bucket{le="..."}` rows (closed
///    upper bounds, matching obs::Histogram semantics) plus `_sum`/`_count`,
///  - spans/components/health arrays export as labeled families
///    (`cim_span_*{name=...,component=...}`, `cim_health_*{array=...}`),
///  - build metadata exports as `cim_build_info{git_sha=...,...} 1`.
///
/// The server is deliberately minimal: HTTP/1.0, one request per
/// connection, response assembled before the reply is written. It exists to
/// be scraped by curl/Prometheus in tests and demos, not to be a web server.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>

namespace cim::obs {

/// Renders the full registry (counters, gauges, histograms, spans,
/// components) plus per-array health summaries in Prometheus text format.
void write_prometheus_text(std::ostream& os);

/// Blocking-accept TCP endpoint serving write_prometheus_text at any path.
/// One background thread; each accepted connection gets one response and is
/// closed. Port 0 binds an ephemeral port (query with port()).
class PromServer {
 public:
  PromServer() = default;
  ~PromServer();

  PromServer(const PromServer&) = delete;
  PromServer& operator=(const PromServer&) = delete;

  /// Binds 127.0.0.1:`port` and starts the accept thread. Starting an
  /// already-running server is a no-op that returns true when the request
  /// is compatible (same port, or 0 = "any"); asking a running server to
  /// rebind to a *different* port returns false. Returns false when the
  /// socket could not be bound.
  bool start(std::uint16_t port);
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (differs from the request when started with 0).
  std::uint16_t port() const { return port_; }

 private:
  void serve_loop();

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// The process-wide scrape endpoint. Not started by construction — use the
/// explicit start/stop helpers below or the env-driven one. Exposed so any
/// long-running front-end (the serving layer, tools, tests) can manage the
/// endpoint lifecycle without constructing a CimSystem.
PromServer& global_prom_server();

/// Explicitly starts the process-wide scrape endpoint on `port` (0 binds an
/// ephemeral port). Idempotent: if the endpoint is already up the call is a
/// no-op and the already-bound port is returned. Returns 0 only when the
/// socket could not be bound (or a different port was requested while
/// running). Does not consult CIM_OBS_PROM_PORT or the telemetry mode.
std::uint16_t start_global_prometheus(std::uint16_t port);

/// Stops the process-wide scrape endpoint (no-op when not running).
void stop_global_prometheus();

/// Starts the process-wide scrape endpoint when CIM_OBS_PROM_PORT is set to
/// a valid port and telemetry is enabled. Idempotent (double-start is a
/// no-op); returns the bound port, or 0 when no server is running. A port
/// that cannot be bound (one another process holds, say) gets one stderr
/// line per process naming the variable and the port. Called from the
/// CimSystem ctor and the serving controller.
std::uint16_t maybe_start_prometheus_from_env();

}  // namespace cim::obs
