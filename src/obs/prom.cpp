#include "obs/prom.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string_view>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"

namespace cim::obs {

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry dots (and
/// anything else invalid) become underscores; a "cim_" prefix namespaces us.
std::string prom_name(std::string_view raw, const char* suffix = "") {
  std::string out = "cim_";
  for (char ch : raw) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out.push_back(ok ? ch : '_');
  }
  out += suffix;
  return out;
}

/// Label values escape backslash, double-quote and newline per the spec.
void prom_label_value(std::ostream& os, std::string_view v) {
  os << '"';
  for (char ch : v) {
    switch (ch) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << ch;
    }
  }
  os << '"';
}

void prom_value(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    os << record::g17(v);
  }
}

void header(std::ostream& os, const std::string& name, const char* type,
            const char* help) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

void write_prometheus_text(std::ostream& os) {
  const Snapshot s = snapshot();

  {
    const std::string name = "cim_build_info";
    header(os, name, "gauge", "Build metadata for this process.");
    os << name << "{git_sha=";
    prom_label_value(os, s.meta.git_sha);
    os << ",build_type=";
    prom_label_value(os, s.meta.build_type);
    os << ",mode=";
    prom_label_value(os, s.meta.mode);
    os << ",simd_isa=";
    prom_label_value(os, s.meta.simd_isa);
    os << "} 1\n";
  }

  for (const auto& [raw, v] : s.counters) {
    const std::string name = prom_name(raw, "_total");
    header(os, name, "counter", "cim::obs counter.");
    os << name << ' ' << v << '\n';
  }

  for (const auto& [raw, v] : s.gauges) {
    const std::string name = prom_name(raw);
    header(os, name, "gauge", "cim::obs gauge.");
    os << name << ' ';
    prom_value(os, v);
    os << '\n';
  }

  for (const auto& h : s.histograms) {
    const std::string name = prom_name(h.name);
    header(os, name, "histogram", "cim::obs histogram.");
    // obs::Histogram buckets have closed upper bounds, which is exactly
    // Prometheus `le` semantics; emit cumulative counts.
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.data.bounds.size(); ++b) {
      cum += h.data.counts[b];
      os << name << "_bucket{le=\"";
      prom_value(os, h.data.bounds[b]);
      os << "\"} " << cum << '\n';
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.data.count << '\n';
    os << name << "_sum ";
    prom_value(os, h.data.sum);
    os << '\n';
    os << name << "_count " << h.data.count << '\n';
    // Scrape-side tail summary (Histogram::Snapshot::quantile): a separate
    // `<name>_q` gauge family so the histogram family above stays exactly
    // the conventional bucket/sum/count triple.
    if (h.data.count > 0) {
      const std::string qname = name + "_q";
      header(os, qname, "gauge",
             "Estimated quantiles of the cim::obs histogram.");
      for (const auto& [label, q] :
           {std::pair<const char*, double>{"0.5", 0.5},
            {"0.99", 0.99},
            {"0.999", 0.999}}) {
        os << qname << "{quantile=\"" << label << "\"} ";
        prom_value(os, h.data.quantile(q));
        os << '\n';
      }
    }
  }

  if (!s.spans.empty()) {
    header(os, "cim_span_count_total", "counter", "Span invocations.");
    header(os, "cim_span_wall_ns_total", "counter", "Span wall time (ns).");
    header(os, "cim_span_energy_pj_total", "counter", "Span energy (pJ).");
    for (const auto& row : s.spans) {
      std::ostringstream labels;
      labels << "{name=";
      prom_label_value(labels, row.name);
      labels << ",component=";
      prom_label_value(labels, component_name(row.comp));
      labels << "}";
      const std::string l = labels.str();
      os << "cim_span_count_total" << l << ' ' << row.count << '\n';
      os << "cim_span_wall_ns_total" << l << ' ';
      prom_value(os, row.wall_ns);
      os << '\n';
      os << "cim_span_energy_pj_total" << l << ' ';
      prom_value(os, row.energy_pj);
      os << '\n';
    }
  }

  header(os, "cim_component_events_total", "counter",
         "Attribution events per design component.");
  header(os, "cim_component_energy_pj_total", "counter",
         "Simulated energy per design component (pJ).");
  for (const auto& row : s.components) {
    std::ostringstream labels;
    labels << "{component=";
    prom_label_value(labels, component_name(row.comp));
    labels << "}";
    const std::string l = labels.str();
    os << "cim_component_events_total" << l << ' ' << row.events << '\n';
    os << "cim_component_energy_pj_total" << l << ' ';
    prom_value(os, row.energy_pj);
    os << '\n';
  }

  const auto monitors = HealthRegistry::global().monitors();
  if (!monitors.empty()) {
    header(os, "cim_health_writes_total", "counter",
           "Programming pulses per array (endurance wear).");
    header(os, "cim_health_disturbs_total", "counter",
           "Disturb events per array.");
    header(os, "cim_health_worn_cells", "gauge",
           "Cells worn out (hard-stuck) in the field.");
    header(os, "cim_health_max_wear", "gauge",
           "Maximum per-cell write count.");
    header(os, "cim_health_mean_abs_drift_us", "gauge",
           "Mean |conductance drift| since last program (uS).");
    header(os, "cim_health_max_abs_drift_us", "gauge",
           "Max |conductance drift| since last program (uS).");
    header(os, "cim_health_adc_samples_total", "counter",
           "ADC conversions per array.");
    header(os, "cim_health_adc_clips_total", "counter",
           "ADC saturation/clipping events per array.");
    header(os, "cim_health_sneak_ua_total", "counter",
           "Accumulated sneak-path current (uA-samples).");
    for (const auto& mon : monitors) {
      const HealthMonitor::Snapshot hs = mon->snapshot();
      std::ostringstream labels;
      labels << "{array=";
      prom_label_value(labels, hs.name);
      labels << "}";
      const std::string l = labels.str();
      os << "cim_health_writes_total" << l << ' ' << hs.total_writes << '\n';
      os << "cim_health_disturbs_total" << l << ' ' << hs.total_disturbs
         << '\n';
      os << "cim_health_worn_cells" << l << ' ' << hs.worn_cells << '\n';
      os << "cim_health_max_wear" << l << ' ' << hs.max_wear << '\n';
      os << "cim_health_mean_abs_drift_us" << l << ' ';
      prom_value(os, hs.mean_abs_drift_us);
      os << '\n';
      os << "cim_health_max_abs_drift_us" << l << ' ';
      prom_value(os, hs.max_abs_drift_us);
      os << '\n';
      os << "cim_health_adc_samples_total" << l << ' ' << hs.total_adc_samples
         << '\n';
      os << "cim_health_adc_clips_total" << l << ' ' << hs.total_adc_clips
         << '\n';
      os << "cim_health_sneak_ua_total" << l << ' ';
      prom_value(os, hs.total_sneak_ua);
      os << '\n';
    }
  }
}

// --- PromServer --------------------------------------------------------------

PromServer::~PromServer() { stop(); }

bool PromServer::start(std::uint16_t port) {
  // Double-start is a no-op, not a bind failure: a front-end that starts
  // the endpoint explicitly must compose with a CimSystem ctor (or another
  // front-end) doing the same.
  if (running_.load(std::memory_order_acquire))
    return port == 0 || port == port_;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }

  // Recover the ephemeral port when started with 0.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);
  else
    port_ = port;

  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void PromServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void PromServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r <= 0) continue;  // timeout (checks stop flag) or transient error
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    // Drain whatever request line arrived; the path is ignored — every
    // request gets the metrics page.
    char reqbuf[1024];
    (void)::recv(conn, reqbuf, sizeof(reqbuf), MSG_DONTWAIT);

    std::ostringstream body;
    write_prometheus_text(body);
    const std::string text = body.str();

    std::ostringstream resp;
    resp << "HTTP/1.0 200 OK\r\n"
         << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
         << "Content-Length: " << text.size() << "\r\n"
         << "Connection: close\r\n\r\n"
         << text;
    const std::string out = resp.str();

    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(conn, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(conn);
  }
}

namespace {
std::mutex& global_prom_mutex() {
  static std::mutex* mu = new std::mutex();  // leaked, like Registry
  return *mu;
}
}  // namespace

PromServer& global_prom_server() {
  static PromServer* server = new PromServer();  // leaked, like Registry
  return *server;
}

std::uint16_t start_global_prometheus(std::uint16_t port) {
  std::lock_guard<std::mutex> lk(global_prom_mutex());
  PromServer& server = global_prom_server();
  if (!server.start(port)) return 0;
  return server.port();
}

void stop_global_prometheus() {
  std::lock_guard<std::mutex> lk(global_prom_mutex());
  global_prom_server().stop();
}

std::uint16_t maybe_start_prometheus_from_env() {
  std::lock_guard<std::mutex> lk(global_prom_mutex());
  PromServer& server = global_prom_server();
  if (server.running()) return server.port();
  if (mode() == Mode::kOff) return 0;
  const auto p = record::env_u64("CIM_OBS_PROM_PORT",
                                 std::getenv("CIM_OBS_PROM_PORT"), 65535);
  if (!p) return 0;
  if (!server.start(static_cast<std::uint16_t>(*p))) {
    // Said once: a scraper of a port held by another process reads that
    // process's metrics, so the failed bind must not pass in silence.
    static bool warned = false;
    if (!warned)
      std::fprintf(stderr,
                   "CIM_OBS_PROM_PORT: cannot serve metrics on port %llu; "
                   "no endpoint started\n",
                   static_cast<unsigned long long>(*p));
    warned = true;
    return 0;
  }
  return server.port();
}

}  // namespace cim::obs
