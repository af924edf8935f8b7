/// \file cimbench.cpp
/// \brief The cimbench driver: one workload, one seed, one run.
///
///   cimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///   cimbench --list
///
/// An untraced run (--trace 0) runs timed iterations for --seconds (and at
/// least 1000 of them) with telemetry off and prints every end-to-end
/// metric, its host times in reference time (see ReferenceKernel). A
/// traced run (--trace 1) spends half the time untraced and half
/// with obs metrics on, and prints the exclusive per-layer profile. The
/// last stdout line is one JSON object: correct, attempted, failed and the
/// metrics. Exit 0 when every output check passed, 1 when one failed, 2 on
/// bad usage or a build that must not be measured.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cimbench.hpp"
#include "obs/obs.hpp"
#include "provenance.hpp"
#include "util/simd_dispatch.hpp"

extern char** environ;

namespace cimbench {

const char* call_row_name(Call c) {
  switch (c) {
    case Call::kPredict: return "cimbench.predict";
    case Call::kControllerRun: return "cimbench.controller_run";
    case Call::kProgramCell: return "cimbench.program_cell";
    case Call::kVmm: return "cimbench.vmm";
    case Call::kRunFlow: return "cimbench.run_flow";
  }
  return "cimbench.unknown";
}

double CallTimer::total_ns() const {
  double t = 0.0;
  for (const double v : ns_) t += v;
  return t;
}

namespace {

namespace obs = cim::obs;

#if defined(__OPTIMIZE__) && !CIMBENCH_SANITIZED && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kMeasurableBuild = true;
#else
constexpr bool kMeasurableBuild = false;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// Set-ups timed per untraced run; setup_s is their median.
constexpr std::size_t kSetupSamples = 11;
/// Fewest timed calls per untraced run.
constexpr std::size_t kMinCalls = 1000;
/// Fewest iterations of a traced phase.
constexpr std::size_t kMinTracedCalls = 100;

const std::vector<MetricDef> kEndToEnd{
    {"setup_s", "s", "lower"},
    {"ops_per_s", "1/s", "higher"},
    {"op_p50_us", "us", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
    {"sim_time_per_op", "sim_ns", "lower"},
    {"sim_energy_per_op", "sim_pJ", "lower"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "cimbench: %s\nusage: cimbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       cimbench --list\n",
               why);
  return 2;
}

/// Parses argv; returns an exit code when the run must stop, -1 otherwise.
int parse(int argc, char** argv, Options& opt) {
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    if (arg == "--list") {
      opt.list = true;
      continue;
    }
    if (a + 1 >= argc) return usage("missing value");
    const char* value = argv[++a];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*value == '-' || end == value || *end != '\0')
        return usage("--seed takes a non-negative integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 3600.0)
        return usage("--seconds takes a number in (0, 3600]");
    } else if (arg == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else {
      return usage("unknown argument");
    }
  }
  return -1;
}

/// No CIM_* variable may change what is measured: drop them all, then pin
/// the library's global pool to one lane.
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv = *e;
    if (kv.starts_with("CIM_")) names.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("CIM_THREADS", "1", 1);
}

/// q-quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Peak resident set of this process image (MiB). /proc's VmHWM starts
/// afresh at exec; getrusage's ru_maxrss would keep the launcher's peak.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  double kib = std::nan("");
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The host-speed reference. A shared host runs the same code up to twice
/// as fast at one moment as at another: its other tenants contend for the
/// core and its caches, in phases of seconds whose shares change from run
/// to run, while the benchmark's thread keeps the CPU all along (thread
/// CPU time equals wall time). Raw host time therefore measures the
/// neighbours as much as the code. So the driver rates the host with this
/// fixed kernel of its own after every kSegmentNs of timed calls, and
/// converts the host time of that segment into reference time: host time
/// x kReferenceNs / the kernel's time. Every host-time metric is in
/// reference time, the time of a host on which the kernel takes
/// kReferenceNs. The kernel is benchmark code, never library code, so no
/// library change can move it. Its three parts take about equal time: a
/// serial floating-point chain over an L1-resident array, a 128x128
/// matrix-vector product whose 128 KiB matrix streams from L2, fed by an
/// integer RNG, and independent libm exp/log1p calls. Of the mixes tried,
/// this one's time tracks all four workloads best (README). One untimed
/// pass first brings its data back into cache, so what the workload left
/// in the caches does not change its time.
class ReferenceKernel {
 public:
  /// About the kernel's time on a 4-core Xeon VM in its fast phase (the
  /// 5th percentile of 390,000 ratings over 64 runs), so reference time is
  /// close to that host's time at its best. It only sets the unit.
  static constexpr double kReferenceNs = 46e3;

  ReferenceKernel()
      : chain_(kChain, 1.0),
        matrix_(kDim * kDim, 0.5),
        x_(kDim),
        libm_(kLibm, 0.3) {}

  /// The factor that converts host time measured now into reference time.
  double scale() {
    pass(1, 1);
    const Clock::time_point t0 = Clock::now();
    pass(3, 2);
    return kReferenceNs / ns_between(t0, Clock::now());
  }

 private:
  static constexpr std::size_t kChain = 4096;
  static constexpr std::size_t kDim = 128;
  static constexpr std::size_t kLibm = 1024;

  /// Every part's result is stored back, so no pass can be optimized away.
  void pass(int chain_reps, int matvec_reps) {
    double s = 0.0;
    for (int r = 0; r < chain_reps; ++r)
      for (double& v : chain_) {
        s += v * 1.0000001;
        v = s * 1e-9 + 1.0;
      }
    for (int r = 0; r < matvec_reps; ++r) {
      for (double& v : x_) {
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        v = static_cast<double>(rng_ >> 11) * 0x1.0p-53;
      }
      for (std::size_t i = 0; i < kDim; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < kDim; ++j)
          acc += matrix_[i * kDim + j] * x_[j];
        matrix_[i * kDim + (rng_ & (kDim - 1))] += acc * 1e-12;
      }
    }
    // Converges to a fixed point, so every pass does the same work.
    for (double& v : libm_) v = std::exp(-v) + 0.5 * std::log1p(v);
  }

  std::vector<double> chain_;
  std::vector<double> matrix_;
  std::vector<double> x_;
  std::vector<double> libm_;
  std::uint64_t rng_ = 88172645463325252ULL;
};

/// Timed host ns between two reference ratings.
constexpr double kSegmentNs = 2e6;

/// Builds the workload into `w`, freeing w's old instance first, and
/// returns the set-up time in reference seconds, rated before and after.
double timed_setup(const Options& opt, std::unique_ptr<Workload>& w,
                   ReferenceKernel& ref) {
  w.reset();
  const double before = ref.scale();
  const Clock::time_point t0 = Clock::now();
  w = make_workload(opt.workload, opt.seed);
  const double host_s = ns_between(t0, Clock::now()) * 1e-9;
  return host_s * (before + ref.scale()) / 2.0;
}

/// Timed iterations, possibly gathered over several stretches.
struct Phase {
  std::size_t iterations = 0;
  std::size_t ops = 0;
  std::size_t failed = 0;
  double wall_ns = 0.0;  ///< host wall time of the stretches, ratings out
  /// Host wall time inside Workload::step: the timed calls plus the
  /// untimed input generation and output checks around them.
  double step_ns = 0.0;
  double ref_ns = 0.0;                ///< timed reference ns, all iterations
  std::vector<std::size_t> iter_ops;  ///< ops of each iteration
  /// Timed ns of each iteration: host ns until its segment is rated, then
  /// reference ns.
  std::vector<double> iter_ref_ns;
};

/// Adds iterations to `p` until `seconds` have passed in this stretch and
/// `p` holds at least `min_iterations`. After every kSegmentNs of timed
/// host time, and at the end, `ref` rates the host and the segment's
/// timed time is converted to reference time.
void run_stretch(Workload& w, std::size_t& next, CallTimer& time, Phase& p,
                 ReferenceKernel& ref, double seconds,
                 std::size_t min_iterations) {
  const Clock::time_point start = Clock::now();
  double rating_ns = 0.0;
  double segment_ns = 0.0;
  std::size_t segment_begin = p.iter_ref_ns.size();
  const auto rate_segment = [&] {
    const Clock::time_point k0 = Clock::now();
    const double s = ref.scale();
    rating_ns += ns_between(k0, Clock::now());
    for (std::size_t k = segment_begin; k < p.iter_ref_ns.size(); ++k) {
      p.iter_ref_ns[k] *= s;
      p.ref_ns += p.iter_ref_ns[k];
    }
    segment_begin = p.iter_ref_ns.size();
    segment_ns = 0.0;
  };
  for (;;) {
    time.begin_iteration();
    const Clock::time_point t0 = Clock::now();
    const StepResult r = w.step(next++, time);
    p.step_ns += ns_between(t0, Clock::now());
    ++p.iterations;
    p.ops += r.ops;
    p.failed += r.failed;
    p.iter_ops.push_back(r.ops);
    p.iter_ref_ns.push_back(time.iteration_ns());
    segment_ns += time.iteration_ns();
    if (segment_ns >= kSegmentNs) rate_segment();
    if (p.iterations >= min_iterations &&
        ns_between(start, Clock::now()) >= seconds * 1e9)
      break;
  }
  if (segment_begin < p.iter_ref_ns.size()) rate_segment();
  p.wall_ns += ns_between(start, Clock::now()) - rating_ns;
}

/// Median reference time per op over every timed call (us). There is no
/// host-time tail metric: on a shared host the tail of the per-op times
/// follows the other tenants more than the code (README).
double op_p50_us(const Phase& p) {
  std::vector<double> op_us;
  op_us.reserve(p.iterations);
  for (std::size_t k = 0; k < p.iterations; ++k)
    op_us.push_back(p.iter_ref_ns[k] / 1e3 /
                    static_cast<double>(p.iter_ops[k]));
  return quantile(op_us, 0.50);
}

Counters minus(Counters a, const Counters& b) {
  for (const auto& [k, v] : b) a[k] -= v;
  return a;
}

void print_list() {
  for (const std::string_view w : workload_names())
    std::printf("workload %.*s\n", static_cast<int>(w.size()), w.data());
  for (const MetricDef& m : kEndToEnd)
    std::printf("end_to_end %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                m.better.c_str());
  for (const MetricDef& m : per_layer_metrics())
    std::printf("per_layer %s %s %s\n", m.name.c_str(), m.unit.c_str(),
                m.better.c_str());
}

/// What a run measured, before its whole-run checks.
struct Measured {
  std::unique_ptr<Workload> workload;
  std::vector<std::pair<std::string, double>> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t calls = 0;
  std::string problem;  ///< empty when the measurement itself is sound
};

Measured measure_untraced(const Options& opt) {
  Measured m;
  std::unique_ptr<Workload>& w = m.workload;
  ReferenceKernel ref;
  std::vector<double> setup_s{timed_setup(opt, w, ref)};
  // Read before the timed loop, whose per-iteration sample storage grows
  // with the run; the warm-up pass has already reached steady state.
  const double rss_mib = peak_rss_mib();

  // The other set-ups are timed between equal stretches of the timed loop
  // (on a spare instance), so one slow stretch of a shared host cannot
  // move their median.
  std::size_t next = w->period();
  CallTimer timed;
  Phase p;
  for (std::size_t k = 1; k <= kSetupSamples; ++k) {
    const bool last = k == kSetupSamples;
    run_stretch(*w, next, timed, p, ref,
                opt.seconds / static_cast<double>(kSetupSamples),
                last ? std::max(kMinCalls, w->sim_iterations()) : 0);
    if (!last) {
      std::unique_ptr<Workload> spare;
      setup_s.push_back(timed_setup(opt, spare, ref));
    }
  }

  const auto sim_n =
      static_cast<double>(std::max<std::size_t>(1, w->sim_ops()));
  m.metrics = {
      {"setup_s", quantile(setup_s, 0.5)},
      {"ops_per_s", static_cast<double>(p.ops) / (p.ref_ns * 1e-9)},
      {"op_p50_us", op_p50_us(p)},
      {"peak_rss_mb", rss_mib},
      {"sim_time_per_op", w->sim_ns() / sim_n},
      {"sim_energy_per_op", w->sim_pj() / sim_n},
  };
  m.attempted = p.ops;
  m.failed = p.failed;
  m.calls = p.iterations;
  return m;
}

Measured measure_traced(const Options& opt) {
  Measured m;
  std::unique_ptr<Workload>& w = m.workload;
  ReferenceKernel ref;
  timed_setup(opt, w, ref);

  // Untraced half first (it also completes the simulated prefix the
  // output checks read), then the traced half.
  std::size_t next = w->period();
  CallTimer plain_calls;
  Phase plain;
  run_stretch(*w, next, plain_calls, plain, ref, opt.seconds / 2.0,
              std::max(kMinTracedCalls, w->sim_iterations()));
  const Counters before = w->counters();
  CallTimer traced_calls;
  Phase traced;
  obs::set_mode(obs::Mode::kMetrics);
  obs::reset();
  run_stretch(*w, next, traced_calls, traced, ref, opt.seconds / 2.0,
              kMinTracedCalls);
  obs::set_mode(obs::Mode::kOff);
  const obs::Snapshot snap = obs::snapshot();

  TraceInput in;
  in.wall_ns = traced.wall_ns;
  in.step_ns = traced.step_ns;
  in.untraced_op_ref_ns = plain.ref_ns / static_cast<double>(plain.ops);
  in.traced_op_ref_ns = traced.ref_ns / static_cast<double>(traced.ops);
  in.ops = traced.ops;
  in.calls = &traced_calls;
  in.spans = &snap;
  in.counters = minus(w->counters(), before);
  const Profile prof = build_profile(w->layers(), in);

  std::printf("exclusive profile of %s (seed %llu, %zu traced ops, %.3f s)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              traced.ops, traced.wall_ns * 1e-9);
  std::printf("  %-16s %14s %8s\n", "layer", "self us/op", "share");
  for (const auto& [layer, ns] : prof.self_ns) {
    if (ns == 0.0) continue;
    std::printf("  %-16s %14.4f %7.2f%%\n", layer.c_str(),
                ns / 1e3 / static_cast<double>(traced.ops),
                100.0 * ns / traced.wall_ns);
  }

  m.metrics = prof.metrics;
  m.problem = prof.problem;
  m.attempted = plain.ops + traced.ops;
  m.failed = plain.failed + traced.failed;
  m.calls = plain.iterations + traced.iterations;
  return m;
}

int run(const Options& opt) {
  obs::set_mode(obs::Mode::kOff);
  Measured m = opt.trace ? measure_traced(opt) : measure_untraced(opt);

  const Verdict v = m.workload->finish();
  if (!v.ok && m.problem.empty()) m.problem = "aggregate output check failed";
  for (const auto& [k, value] : m.metrics)
    if (!std::isfinite(value)) m.problem = "non-finite metric " + k;
  const bool correct = m.problem.empty() && m.failed == 0;

  std::string info =
      "{\"cimbench\": {\"workload\": \"" + opt.workload +
      "\", \"seed\": " + std::to_string(opt.seed) +
      ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"calls\": " + std::to_string(m.calls) +
      ", \"git_sha\": \"" CIMBENCH_GIT_SHA
      "\", \"git_dirty\": \"" CIMBENCH_GIT_DIRTY
      "\", \"build_type\": \"" CIMBENCH_BUILD_TYPE "\", \"compiler\": \"" +
      kCompiler + "\", \"simd_isa\": \"" +
      cim::util::simd::active_isa_name() + "\", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cim_threads\": 1";
  for (const auto& [k, value] : v.info)
    info += ", \"" + k + "\": " + number(value);
  if (!m.problem.empty()) info += ", \"problem\": \"" + m.problem + "\"";
  std::printf("%s}}\n", info.c_str());

  const std::vector<MetricDef>& defs =
      opt.trace ? per_layer_metrics() : kEndToEnd;
  if (m.metrics.size() != defs.size())
    throw std::logic_error("metric list does not match its definitions");
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(m.attempted) +
                     ", \"failed\": " + std::to_string(m.failed) +
                     ", \"metrics\": {";
  for (std::size_t k = 0; k < defs.size(); ++k) {
    if (m.metrics[k].first != defs[k].name)
      throw std::logic_error("metric out of order: " + m.metrics[k].first);
    if (k > 0) line += ", ";
    line += "\"" + defs[k].name + "\": {\"value\": " +
            number(m.metrics[k].second) + ", \"unit\": \"" + defs[k].unit +
            "\"}";
  }
  std::printf("%s}}\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cimbench

int main(int argc, char** argv) {
  using namespace cimbench;
  pin_environment();
  Options opt;
  if (const int rc = parse(argc, argv, opt); rc >= 0) return rc;
  if (opt.list) {
    print_list();
    return 0;
  }
  if (!kMeasurableBuild) {
    std::fprintf(stderr,
                 "cimbench: refusing to measure a non-optimized or sanitizer "
                 "build (build type %s)\n",
                 CIMBENCH_BUILD_TYPE);
    return 2;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end())
    return usage("unknown or missing --workload");
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cimbench: %s\n", e.what());
    return 1;
  }
}
