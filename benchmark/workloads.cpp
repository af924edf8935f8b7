/// \file workloads.cpp
/// \brief The four cimbench workloads. Each is a closed loop from one
///        caller thread (null ThreadPool everywhere), so its numbers are
///        per-operation costs. The seed argument makes every input; the
///        library only ever sees the generated inputs.
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cimbench.hpp"
#include "core/quantized_mlp.hpp"
#include "crossbar/crossbar.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/flow.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "obs/obs.hpp"
#include "serve/controller.hpp"
#include "serve/tile_pool.hpp"
#include "serve/traffic.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace cimbench {

using namespace cim;

namespace {

/// Suspends telemetry for oracle work inside a traced phase, so reference
/// computations never land in the library's span rows.
class ObsPause {
 public:
  ObsPause() : mode_(obs::mode()) { obs::set_mode(obs::Mode::kOff); }
  ~ObsPause() { obs::set_mode(mode_); }
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  obs::Mode mode_;
};

// The crossbar-read nesting shared by every workload that reads through
// CimSystem tiles: system -> tile (bit-serial periphery loop) -> crossbar
// VMM of any fidelity tier -> conductance-cache repair.
const LayerDef kSystemLayer{"core.system", {"system.vmm_int"},
                            {"tile.vmm_int"}};
const LayerDef kTileLayer{"core.tile", {"tile.vmm_int"}, {"crossbar.vmm"}};
const LayerDef kReadLayer{"crossbar.read", {"crossbar.vmm"},
                          {"crossbar.cache."}};
const LayerDef kCacheLayer{"crossbar.cache", {"crossbar.cache."}, {}};

/// infer_full: INT4 64->64->10 digit MLP on 64x32 tiles with an 8-bit ADC
/// and IR-drop, fidelity tier 0 (noise + read disturb). The time goes to
/// tier-0 crossbar reads and the tile bit-serial loop; serve and eda code
/// is never touched. The trained model is fixed; the seed draws the test
/// set and the device randomness, so the cost per op (which follows the
/// model's activation sparsity) does not change from seed to seed.
class InferFull final : public Workload {
 public:
  static constexpr std::size_t kTestSamples = 1000;
  static constexpr std::size_t kTrainEpochs = 20;
  static constexpr std::uint64_t kModelSeed = 3;

  /// One pass is the test set; the simulated prefix covers it once.
  explicit InferFull(std::uint64_t seed)
      : Workload(kTestSamples, kTestSamples) {
    util::Rng model_rng(kModelSeed);
    const nn::Dataset train = nn::generate_digits(500, model_rng, 0.1);
    nn::Mlp net({nn::kPixels, 64, nn::kClasses}, model_rng);
    for (std::size_t e = 0; e < kTrainEpochs; ++e)
      net.train_epoch(train, 0.05, model_rng);
    qmlp_ = core::QuantizedMlp::from_mlp(net, 4, 4, train);
    util::Rng rng(util::Rng::stream_seed(seed, 0));
    test_ = nn::generate_digits(kTestSamples, rng, 0.1);
    core::CimSystemConfig cfg;
    cfg.tile.tile.rows = 64;
    cfg.tile.tile.cols = 32;
    cfg.tile.tile.adc_bits = 8;
    cfg.tile.array.model_ir_drop = true;
    cfg.tile.seed = util::Rng::stream_seed(seed, 1);
    runner_ = std::make_unique<core::CimMlpRunner>(qmlp_, cfg);
  }

  StepResult step(std::size_t i, CallTimer& time) override {
    const std::size_t s = i % test_.size();
    const std::span<const double> x = test_.features.row(s);
    const auto before = runner_->totals();
    const int label = time(Call::kPredict, [&] { return runner_->predict(x); });
    StepResult r;
    r.failed = label >= 0 && label < nn::kClasses ? 0 : 1;
    if (in_sim_prefix(i)) {
      const auto after = runner_->totals();
      add_sim(after.time_ns - before.time_ns);
      add_sim_pj(after.energy_pj - before.energy_pj);
      if (label == test_.labels[s]) ++prefix_correct_;
    }
    return r;
  }

  /// The prefix covers the test set exactly once; the tiles may lose at
  /// most 0.05 accuracy against the integer-exact INT4 reference.
  Verdict finish() override {
    Verdict v;
    const double acc = static_cast<double>(prefix_correct_) /
                       static_cast<double>(kTestSamples);
    const double ref = qmlp_.accuracy_reference(test_);
    v.ok = acc >= ref - 0.05;
    v.info = {{"accuracy", acc}, {"reference_accuracy", ref}};
    return v;
  }

  std::vector<LayerDef> layers() const override {
    return {{"core.mlp", {call_row_name(Call::kPredict)}, {"system.vmm_int"}},
            kSystemLayer, kTileLayer, kReadLayer, kCacheLayer};
  }

 private:
  nn::Dataset test_;
  core::QuantizedMlp qmlp_;
  std::unique_ptr<core::CimMlpRunner> runner_;
  std::size_t prefix_correct_ = 0;
};

/// serve_ideal: epochs of Poisson requests at 80% of the analytic capacity
/// of a 4-replica 64x64 pool, served at fidelity tier 2 (exact
/// conductances, no RNG). The pool and controller persist across epochs;
/// each epoch's traffic is generated before its timer starts. Tier 2
/// bypasses the noise code, so the time goes to the tile periphery loop,
/// ideal reads and the controller: a crossbar-noise speedup shows nothing.
class ServeIdeal final : public Workload {
 public:
  static constexpr std::size_t kDim = 64;
  static constexpr std::size_t kReplicas = 4;
  static constexpr int kInputBits = 4;
  /// Requests per epoch (one timed Controller::run): short calls, so a run
  /// makes thousands of them.
  static constexpr std::size_t kEpochRequests = 128;
  /// Queueing makes an epoch's mean simulated latency vary; this many
  /// epochs hold its seed-to-seed spread near 0.05%.
  static constexpr std::size_t kSimEpochs = 1600;
  static constexpr std::size_t kCheckEvery = 64;

  explicit ServeIdeal(std::uint64_t seed)
      : Workload(1, kSimEpochs),
        seed_(seed),
        pool_(weights(), pool_config()),
        ctl_(pool_, controller_config()) {
    const double s = pool_.request_latency_ns(kInputBits);
    const double b = static_cast<double>(ctl_.config().max_batch);
    rate_rps_ = 0.8 * static_cast<double>(kReplicas) * 1e9 * b /
                (ctl_.config().issue_overhead_ns + b * s);
  }

  StepResult step(std::size_t i, CallTimer& time) override {
    serve::TrafficConfig traffic;
    traffic.requests = kEpochRequests;
    traffic.rate_rps = rate_rps_;
    traffic.in_dim = kDim;
    traffic.input_bits = kInputBits;
    traffic.tier = crossbar::FidelityTier::kIdeal;
    traffic.seed = util::Rng::stream_seed(seed_, i);
    const std::vector<serve::Request> requests = serve::generate(traffic);

    const double e0 = pool_energy_pj();
    const serve::ServeReport report = time(
        Call::kControllerRun, [&] { return ctl_.run(requests, nullptr); });

    // Rejections count as failures; every completion must satisfy the
    // bitwise latency-decomposition identity, and every 64th must equal a
    // reference replica's result.
    StepResult r;
    r.ops = requests.size();
    r.failed = report.rejections.size();
    for (const serve::Completion& c : report.completions) {
      bool ok = c.arrival_ns + c.decomposition_sum() == c.done_ns &&
                c.result.size() == kDim;
      if (ok && !warming_up(i) && ++completions_ % kCheckEvery == 0)
        ok = matches_reference(requests[c.id], c);
      if (!ok) ++r.failed;
      bump("serve.queue_wait_ns", c.queue_wait_ns);
      bump("serve.latency_ns", c.latency_ns());
    }
    bump("serve.dispatches", static_cast<double>(report.stats.dispatches));
    bump("serve.completed", static_cast<double>(report.stats.completed));
    if (in_sim_prefix(i)) {
      for (const serve::Completion& c : report.completions)
        add_sim(c.latency_ns());
      add_sim_pj(pool_energy_pj() - e0);
    }
    return r;
  }

  std::vector<LayerDef> layers() const override {
    return {{"serve", {call_row_name(Call::kControllerRun)},
             {"system.vmm_int"}},
            kSystemLayer, kTileLayer, kReadLayer, kCacheLayer};
  }

 private:
  static util::Matrix weights() {
    util::Rng rng(2024);
    util::Matrix w(kDim, kDim);
    for (double& v : w.flat())
      v = static_cast<double>(static_cast<long>(rng.uniform_int(15)) - 7);
    return w;
  }

  static serve::TilePoolConfig pool_config() {
    serve::TilePoolConfig cfg;
    cfg.replicas = kReplicas;
    cfg.system.tile.tile.rows = kDim;
    cfg.system.tile.tile.cols = kDim;
    cfg.seed = 4242;
    return cfg;
  }

  static serve::ControllerConfig controller_config() {
    serve::ControllerConfig cfg;
    cfg.max_batch = 16;
    cfg.window_ns = 10000.0;
    cfg.slo_target_ns = 10000.0;
    return cfg;
  }

  double pool_energy_pj() const {
    double e = 0.0;
    for (std::size_t r = 0; r < pool_.size(); ++r)
      e += pool_.replica(r).stats().energy_pj;
    return e;
  }

  /// Tier 2 reads the programmed target levels, which every replica shares,
  /// so a separately built pool is an exact oracle (the integer product is
  /// not: the ADC quantizes).
  bool matches_reference(const serve::Request& req,
                         const serve::Completion& c) {
    const ObsPause pause;
    if (reference_ == nullptr)
      reference_ = std::make_unique<serve::TilePool>(weights(), pool_config());
    return reference_->replica(c.replica).vmm_int(
               req.input, kInputBits, nullptr,
               crossbar::FidelityTier::kIdeal) == c.result;
  }

  std::uint64_t seed_;
  serve::TilePool pool_;
  serve::Controller ctl_;
  double rate_rps_ = 0.0;
  std::size_t completions_ = 0;
  std::unique_ptr<serve::TilePool> reference_;
};

/// update_vmm: one step = 4 verified writes to random cells and levels of
/// a 128x128 HfOx crossbar, then one tier-0 VMM of a random binary
/// wordline vector. Write-verify pulses and the dirty-cell cache repair sit
/// on the path, so a read-path gain that makes writes dearer shows here.
/// Every 16 writes target each level once and every read drives exactly
/// half the wordlines: the simulated energy follows the level mix and the
/// active rows, so this keeps it from moving with the seed.
class UpdateVmm final : public Workload {
 public:
  static constexpr std::size_t kSize = 128;
  static constexpr std::size_t kWritesPerStep = 4;
  /// Verify retries make a step's simulated time random; this many steps
  /// hold the simulated means' seed-to-seed spread near 0.1%.
  static constexpr std::size_t kSimSteps = 400000;

  explicit UpdateVmm(std::uint64_t seed)
      : Workload(1, kSimSteps),
        xbar_(array_config(seed)),
        stream_(util::Rng::stream_seed(seed, 1)),
        volts_(kSize),
        currents_(kSize) {
    util::Matrix levels(kSize, kSize);
    const auto n_levels = static_cast<std::uint64_t>(xbar_.scheme().levels());
    for (double& v : levels.flat())
      v = static_cast<double>(stream_.uniform_int(n_levels));
    xbar_.program_levels(levels);
  }

  StepResult step(std::size_t i, CallTimer& time) override {
    const auto& sch = xbar_.scheme();
    const crossbar::CrossbarStats before = xbar_.stats();
    for (std::size_t k = 0; k < kWritesPerStep; ++k) {
      const std::size_t row = stream_.uniform_int(kSize);
      const std::size_t col = stream_.uniform_int(kSize);
      if (levels_.empty())
        levels_ = stream_.permutation(static_cast<std::size_t>(sch.levels()));
      const double g =
          sch.level_conductance_us(static_cast<int>(levels_.back()));
      levels_.pop_back();
      const device::WriteResult w = time(
          Call::kProgramCell, [&] { return xbar_.program_cell(row, col, g); });
      bump("crossbar.writes", 1.0);
      bump("crossbar.pulses", static_cast<double>(w.attempts));
      if (!w.success) bump("crossbar.write_misses", 1.0);
    }
    const double v_read = xbar_.tech().v_read;
    const std::vector<std::size_t> rows = stream_.permutation(kSize);
    for (std::size_t k = 0; k < kSize; ++k)
      volts_[rows[k]] = k < kSize / 2 ? v_read : 0.0;
    time(Call::kVmm, [&] { xbar_.vmm(volts_, currents_); });

    StepResult r;
    for (const double c : currents_)
      if (!std::isfinite(c) || c < 0.0) r.failed = 1;
    const crossbar::CrossbarStats& after = xbar_.stats();
    bump("crossbar.dirty_cells", static_cast<double>(after.cache_dirty_cells -
                                                     before.cache_dirty_cells));
    bump("crossbar.deltas", static_cast<double>(after.cache_delta_updates -
                                                before.cache_delta_updates));
    if (in_sim_prefix(i)) {
      add_sim(after.time_ns - before.time_ns);
      add_sim_pj(after.energy_pj - before.energy_pj);
    }
    return r;
  }

  std::vector<LayerDef> layers() const override {
    return {{"crossbar.write", {call_row_name(Call::kProgramCell)}, {}},
            {"crossbar.read", {call_row_name(Call::kVmm)}, {"crossbar.cache."}},
            kCacheLayer};
  }

 private:
  static crossbar::CrossbarConfig array_config(std::uint64_t seed) {
    crossbar::CrossbarConfig cfg;
    cfg.rows = kSize;
    cfg.cols = kSize;
    cfg.tech = device::Technology::kReRamHfOx;
    cfg.levels = 16;
    cfg.verified_writes = true;
    cfg.seed = util::Rng::stream_seed(seed, 0);
    return cfg;
  }

  crossbar::Crossbar xbar_;
  util::Rng stream_;
  std::vector<std::size_t> levels_;  ///< levels left in this block of writes
  std::vector<double> volts_;
  std::vector<double> currents_;
};

/// eda_suite: one eda::run_flow (synthesis, mapping, the cim-lint passes,
/// exhaustive verification for circuits of at most 9 inputs) per op over
/// the Fig. 8 standard suite x {IMPLY, Majority, MAGIC}: the path on which
/// bench_fig8_eda_flow drifted. Each pass runs every flow once, in an
/// order the seed shuffles, so every seed does the same work. No analog
/// VMM at all: verification executors and mapping dominate.
class EdaSuite final : public Workload {
 public:
  static constexpr std::size_t kMaxVerifiedInputs = 9;

  explicit EdaSuite(std::uint64_t seed)
      : EdaSuite(seed, eda::standard_suite()) {}

  StepResult step(std::size_t i, CallTimer& time) override {
    const std::size_t flows = period();
    if (i % flows == 0)
      order_ = util::Rng::stream(seed_, i / flows).permutation(flows);
    const std::size_t f = order_[i % flows];
    const eda::BenchmarkCircuit& bc = suite_[f / kFamilies];
    const eda::LogicFamily family = eda::all_logic_families()[f % kFamilies];
    eda::FlowOptions opts;
    opts.verify = bc.netlist.num_inputs() <= kMaxVerifiedInputs;
    const eda::FlowReport rep = time(Call::kRunFlow, [&] {
      return eda::run_flow(bc.name, bc.netlist, family, opts);
    });
    StepResult r;
    r.failed = (opts.verify && !rep.verified) || !rep.lint_clean ? 1 : 0;
    if (in_sim_prefix(i)) {
      add_sim(rep.static_time_ns);
      add_sim_pj(rep.static_energy_pj_exp);
    }
    return r;
  }

  std::vector<LayerDef> layers() const override {
    return {{"eda.flow", {call_row_name(Call::kRunFlow)},
             {"eda.flow.synth", "eda.flow.map"}},
            {"eda.synth", {"eda.flow.synth"}, {}},
            {"eda.map", {"eda.flow.map"}, {"eda.exec."}},
            {"eda.exec", {"eda.exec."}, {}}};
  }

 private:
  static constexpr std::size_t kFamilies = 3;

  /// One pass, and the simulated prefix, run every (circuit, family) flow
  /// once.
  EdaSuite(std::uint64_t seed, std::vector<eda::BenchmarkCircuit> suite)
      : Workload(suite.size() * kFamilies, suite.size() * kFamilies),
        seed_(seed),
        suite_(std::move(suite)) {}

  std::uint64_t seed_;
  std::vector<eda::BenchmarkCircuit> suite_;
  std::vector<std::size_t> order_;  ///< this pass's flow order
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names{
      "infer_full", "serve_ideal", "update_vmm", "eda_suite"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  std::unique_ptr<Workload> w;
  if (name == "infer_full") w = std::make_unique<InferFull>(seed);
  if (name == "serve_ideal") w = std::make_unique<ServeIdeal>(seed);
  if (name == "update_vmm") w = std::make_unique<UpdateVmm>(seed);
  if (name == "eda_suite") w = std::make_unique<EdaSuite>(seed);
  if (w != nullptr) {
    CallTimer warm_up;
    for (std::size_t i = 0; i < w->period(); ++i) (void)w->step(i, warm_up);
  }
  return w;
}

}  // namespace cimbench
