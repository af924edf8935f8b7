/// \file cimbench.hpp
/// \brief Shared types of the cimbench driver: the timed-call harness, the
///        workload interface and the exclusive per-layer profile.
///
/// Every timing here is host time; every `sim_*` quantity is simulated
/// (the modelled hardware's time or energy) and must not move under a
/// change that only makes the simulator faster.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cim::obs {
struct Snapshot;
}

namespace cimbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// The public library calls the workloads time. Their names are the
/// outermost rows of the traced profile ("cimbench.<name>").
enum class Call : int {
  kPredict,        ///< core::CimMlpRunner::predict
  kControllerRun,  ///< serve::Controller::run
  kProgramCell,    ///< crossbar::Crossbar::program_cell
  kVmm,            ///< crossbar::Crossbar::vmm
  kRunFlow,        ///< eda::run_flow
};
inline constexpr std::size_t kCallCount = 5;
const char* call_row_name(Call c);

/// Times public library calls: per call kind (count + host ns) and per
/// iteration (the sum of the calls one harness iteration made).
class CallTimer {
 public:
  template <class F>
  auto operator()(Call c, F&& f) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      record(c, t0);
    } else {
      auto result = f();
      record(c, t0);
      return result;
    }
  }

  void begin_iteration() { iteration_ns_ = 0.0; }
  double iteration_ns() const { return iteration_ns_; }
  double total_ns() const;
  std::uint64_t count(Call c) const { return count_[index(c)]; }
  double ns(Call c) const { return ns_[index(c)]; }

 private:
  static std::size_t index(Call c) { return static_cast<std::size_t>(c); }
  void record(Call c, Clock::time_point t0) {
    const double d = ns_between(t0, Clock::now());
    ns_[index(c)] += d;
    ++count_[index(c)];
    iteration_ns_ += d;
  }

  std::array<double, kCallCount> ns_{};
  std::array<std::uint64_t, kCallCount> count_{};
  double iteration_ns_ = 0.0;
};

/// What one harness iteration did.
struct StepResult {
  std::size_t ops = 1;     ///< ops the iteration carried (requests, flows, ...)
  std::size_t failed = 0;  ///< ops whose output check failed
};

/// Whole-run output checks (run after the timed loop).
struct Verdict {
  bool ok = true;  ///< aggregate checks (e.g. accuracy) passed
  /// Deterministic check values printed beside the result (accuracy).
  std::vector<std::pair<std::string, double>> info;
};

/// One row of a workload's nesting table: the layer's exclusive (self)
/// time is the inclusive time of the `plus` rows minus that of the `minus`
/// rows. A row name matches every profile row it prefixes, so
/// "crossbar.vmm" covers all fidelity tiers and "eda.exec." all executors.
struct LayerDef {
  const char* layer;
  std::vector<const char*> plus;
  std::vector<const char*> minus;
};

/// Named event counts a workload accumulates for the per-layer ratios
/// (pulses per write, dispatches per request, ...).
using Counters = std::map<std::string, double>;

/// A benchmark workload. Construction plus one warm-up pass (run by
/// make_workload) is the measured set-up; step() is one timed iteration.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Iteration `i`: untimed input preparation, the timed public calls
  /// through `time`, then the untimed output check. Iterations
  /// 0..period()-1 are the warm-up pass; the timed loop starts at period().
  virtual StepResult step(std::size_t i, CallTimer& time) = 0;

  /// Checks that need the whole run; called once after the timed loop.
  virtual Verdict finish() { return {}; }

  /// The exclusive-time nesting table of this workload's layers.
  virtual std::vector<LayerDef> layers() const = 0;

  /// Iterations per pass over the workload's inputs; the warm-up runs one.
  std::size_t period() const { return period_; }
  /// The first sim_iterations() timed iterations feed the simulated
  /// metrics, so those are bit-identical however long the run measures.
  std::size_t sim_iterations() const { return sim_iterations_; }
  std::size_t sim_ops() const { return sim_ops_; }
  double sim_ns() const { return sim_ns_; }
  double sim_pj() const { return sim_pj_; }
  const Counters& counters() const { return counters_; }

 protected:
  Workload(std::size_t period, std::size_t sim_iterations)
      : period_(period), sim_iterations_(sim_iterations) {}

  bool warming_up(std::size_t i) const { return i < period_; }
  bool in_sim_prefix(std::size_t i) const {
    return i >= period_ && i - period_ < sim_iterations_;
  }
  /// Records one op's simulated time (ns) / adds simulated energy (pJ).
  void add_sim(double op_ns) {
    ++sim_ops_;
    sim_ns_ += op_ns;
  }
  void add_sim_pj(double pj) { sim_pj_ += pj; }
  void bump(const char* counter, double v) { counters_[counter] += v; }

 private:
  std::size_t period_;
  std::size_t sim_iterations_;
  std::size_t sim_ops_ = 0;
  double sim_ns_ = 0.0;
  double sim_pj_ = 0.0;
  Counters counters_;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string_view>& workload_names();

/// Builds workload `name` for `seed` and runs its warm-up pass.
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed);

// --- exclusive per-layer profile (profile.cpp) ------------------------------

/// A traced phase's raw material.
struct TraceInput {
  double wall_ns = 0.0;  ///< traced phase host wall time
  double step_ns = 0.0;  ///< of which inside Workload::step
  /// Timed reference time per op of the untraced and the traced phase
  /// (reference time: see ReferenceKernel in cimbench.cpp).
  double untraced_op_ref_ns = 0.0;
  double traced_op_ref_ns = 0.0;
  std::size_t ops = 0;  ///< ops in the traced phase
  const CallTimer* calls = nullptr;
  const cim::obs::Snapshot* spans = nullptr;
  Counters counters;            ///< counter deltas over the traced phase
};

/// Self time of every profile layer (a workload's table names a subset;
/// the rest read zero), the per-layer metrics, and `problem`, empty unless
/// a self time is negative or the self times miss the traced wall by more
/// than 2%. The harness layer ("bench") is measured on its own, so the
/// sum misses the wall when a nesting table leaves out or double-counts a
/// timed call, or when the loop outside Workload::step grows costly.
struct Profile {
  std::vector<std::pair<std::string, double>> self_ns;
  std::vector<std::pair<std::string, double>> metrics;
  std::string problem;
};

Profile build_profile(const std::vector<LayerDef>& table,
                      const TraceInput& in);

/// One metric of BENCHMARK.json: name, unit and which direction is better.
struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
};
const std::vector<MetricDef>& per_layer_metrics();

}  // namespace cimbench
