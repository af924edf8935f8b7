#include "crossbar/crossbar.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "util/kernels.hpp"
#include "util/perf_counters.hpp"
#include "util/thread_pool.hpp"

namespace cim::crossbar {

namespace {

/// Process-wide registry mirrors of the per-instance CrossbarStats event
/// counts. Resolved once (function-local static), bumped only when
/// telemetry is enabled so the disabled hot path stays one branch.
struct ObsCounters {
  obs::Counter& vmm_ops = obs::Registry::global().counter("crossbar.vmm_ops");
  obs::Counter& bit_reads =
      obs::Registry::global().counter("crossbar.bit_reads");
  obs::Counter& bit_writes =
      obs::Registry::global().counter("crossbar.bit_writes");
  obs::Counter& analog_writes =
      obs::Registry::global().counter("crossbar.analog_writes");
  obs::Counter& logic_ops =
      obs::Registry::global().counter("crossbar.logic_ops");
  // Per-fidelity-tier VMM counts (tier 0 = vmm_ops minus the two below).
  obs::Counter& vmm_fast_ops =
      obs::Registry::global().counter("crossbar.vmm_fast_ops");
  obs::Counter& vmm_ideal_ops =
      obs::Registry::global().counter("crossbar.vmm_ideal_ops");
};

ObsCounters& obs_counters() {
  static ObsCounters counters;
  return counters;
}

/// Serial sum of |v_r| in row order (the sneak background's input).
double abs_sum(std::span<const double> v_rows) {
  double s = 0.0;
  for (const double v : v_rows) s += std::abs(v);
  return s;
}

}  // namespace

Crossbar::Crossbar(CrossbarConfig cfg)
    : cfg_(cfg),
      tech_(cfg.tech_override ? *cfg.tech_override
                              : device::technology_params(cfg.tech)),
      rng_(cfg.seed),
      faults_(std::max<std::size_t>(1, cfg.rows), std::max<std::size_t>(1, cfg.cols)) {
  if (cfg_.rows == 0 || cfg_.cols == 0)
    throw std::invalid_argument("Crossbar: empty array");
  cells_.reserve(cfg_.rows * cfg_.cols);
  for (std::size_t i = 0; i < cfg_.rows * cfg_.cols; ++i)
    cells_.emplace_back(tech_, cfg_.levels, rng_);
  dirty_words_per_row_ = (cfg_.cols + 63) / 64;
  dirty_bits_.assign(cfg_.rows * dirty_words_per_row_, 0);
}

void Crossbar::apply_faults(const fault::FaultMap& map) {
  if (map.rows() != cfg_.rows || map.cols() != cfg_.cols)
    throw std::invalid_argument("apply_faults: fault map size mismatch");
  invalidate_conductance_cache();
  faults_ = map;
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      const auto fd = map.cell_fault(r, c);
      if (!fd) continue;
      auto& cl = cell(r, c);
      switch (fd->kind) {
        case fault::FaultKind::kStuckAtZero:
          cl.force_stuck(device::StuckMode::kStuckAtZero);
          break;
        case fault::FaultKind::kStuckAtOne:
        case fault::FaultKind::kOverForming:
        case fault::FaultKind::kEnduranceWearout:
          cl.force_stuck(device::StuckMode::kStuckAtOne);
          break;
        case fault::FaultKind::kTransitionUp:
          cl.force_transition_faults({.up_fails = true, .down_fails = false});
          break;
        case fault::FaultKind::kTransitionDown:
          cl.force_transition_faults({.up_fails = false, .down_fails = true});
          break;
        case fault::FaultKind::kWriteVariation:
          cl.force_write_sigma_scale(fd->severity);
          break;
        case fault::FaultKind::kReadDisturb:
          // Faulty cell is orders of magnitude more disturb-prone.
          cl.force_disturb_scales(/*read=*/1e4, /*write=*/1.0);
          break;
        case fault::FaultKind::kWriteDisturb:
          cl.force_disturb_scales(/*read=*/1.0, /*write=*/1e3);
          break;
        default:
          break;  // array-level faults handled at addressing time
      }
    }
  }
}

obs::HealthMonitor& Crossbar::health_monitor() {
  if (health_ == nullptr) {
    if (health_name_.empty()) health_name_ = obs::next_health_name("crossbar");
    health_ = obs::HealthRegistry::global().monitor(health_name_, cfg_.rows,
                                                    cfg_.cols);
  }
  return *health_;
}

void Crossbar::record_health_write(std::size_t r, std::size_t c,
                                   const device::WriteResult& res,
                                   bool was_stuck) {
  auto& h = health_monitor();
  const auto& cl = cell(r, c);
  // One wear unit per programming pulse — matches cell.write_count() exactly.
  h.record_write(r, c, static_cast<std::uint64_t>(res.attempts));
  h.record_program(r, c, cl.target_conductance_us(), cl.true_conductance_us());
  if (!was_stuck && cl.stuck() != device::StuckMode::kNone)
    h.record_wearout(r, c);
}

std::size_t Crossbar::effective_row(std::size_t r) const {
  for (const auto& fd : faults_.decoder_faults())
    if (fd.row == r) return fd.aux_row;
  return r;
}

bool Crossbar::bit_of(const device::ReRamCell& cl) const {
  const double mid = 0.5 * (tech_.g_on_us() + tech_.g_off_us());
  return cl.true_conductance_us() >= mid;
}

double Crossbar::charge(double time_ns, double energy_pj) {
  stats_.time_ns += time_ns;
  stats_.energy_pj += energy_pj;
  last_op_energy_pj_ = energy_pj;
  // Single accounting choke point: everything charged to a crossbar is
  // array-side cost (periphery is attributed by the tile/system layers).
  if (obs::enabled())
    obs::attribute(obs::Component::kArray, time_ns, energy_pj);
  return energy_pj;
}

void Crossbar::after_write(std::size_t r, std::size_t c, bool value_is_one) {
  const bool health = obs::health_enabled();
  // Coupling faults: an up-transition on the aggressor forces the victim to 1
  // (CFid-style idempotent coupling — the bridge conducts the SET pulse).
  if (value_is_one) {
    for (const auto& fd : faults_.coupling_faults()) {
      if (fd.row == r && fd.col == c) {
        auto& victim = cell(fd.aux_row, fd.aux_col);
        victim.force_conductance(tech_.g_on_us());
        mark_cell_dirty(fd.aux_row, fd.aux_col);
        if (health)
          health_monitor().record_disturb(fd.aux_row, fd.aux_col,
                                          victim.true_conductance_us());
      }
    }
  }
  // Half-select disturb on same-row / same-column neighbours. Only the
  // cells whose conductance actually moved go on the dirty list.
  if (tech_.write_disturb_prob > 0.0) {
    for (std::size_t cc = 0; cc < cfg_.cols; ++cc)
      if (cc != c && cell(r, cc).disturb_from_neighbour_write(rng_)) {
        mark_cell_dirty(r, cc);
        if (health)
          health_monitor().record_disturb(r, cc,
                                          cell(r, cc).true_conductance_us());
      }
    for (std::size_t rr = 0; rr < cfg_.rows; ++rr)
      if (rr != r && cell(rr, c).disturb_from_neighbour_write(rng_)) {
        mark_cell_dirty(rr, c);
        if (health)
          health_monitor().record_disturb(rr, c,
                                          cell(rr, c).true_conductance_us());
      }
  }
}

void Crossbar::write_bit(std::size_t row, std::size_t col, bool value) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("write_bit: out of range");
  const std::size_t er = effective_row(row);
  mark_cell_dirty(er, col);
  auto& cl = cell(er, col);
  const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
  const int level = value ? cl.scheme().levels() - 1 : 0;
  const auto res = cl.write_level(level, rng_, cfg_.verified_writes);
  ++stats_.bit_writes;
  if (obs::enabled()) obs_counters().bit_writes.add(1);
  if (obs::health_enabled()) record_health_write(er, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
  after_write(er, col, value);
}

bool Crossbar::read_bit(std::size_t row, std::size_t col) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("read_bit: out of range");
  const std::size_t er = effective_row(row);
  auto& cl = cell(er, col);
  // Reads can disturb (drift towards LRS): dirty-mark only when they did.
  const double g_before = cl.true_conductance_us();
  const double g = cl.read_conductance_us(rng_);
  if (cl.true_conductance_us() != g_before) {
    mark_cell_dirty(er, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(er, col, cl.true_conductance_us());
  }
  ++stats_.bit_reads;
  if (obs::enabled()) obs_counters().bit_reads.add(1);
  // Read energy: V_read^2 * G * t_read ; pJ = V^2[V] * G[uS] * t[ns] * 1e-3
  const double e = tech_.v_read * tech_.v_read * g * tech_.t_read_ns * 1e-3 +
                   tech_.e_read_pj;
  charge(tech_.t_read_ns, e);
  const double mid = 0.5 * (tech_.g_on_us() + tech_.g_off_us());
  return g >= mid;
}

device::WriteResult Crossbar::program_cell_impl(std::size_t row,
                                                std::size_t col, double g_us) {
  auto& cl = cell(row, col);
  const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
  const auto res = cl.write_conductance(g_us, rng_, cfg_.verified_writes);
  ++stats_.analog_writes;
  if (obs::enabled()) obs_counters().analog_writes.add(1);
  if (obs::health_enabled()) record_health_write(row, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
  const double mid = 0.5 * (tech_.g_on_us() + tech_.g_off_us());
  after_write(row, col, g_us >= mid);
  return res;
}

device::WriteResult Crossbar::program_cell(std::size_t row, std::size_t col,
                                           double g_us) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("program_cell: out of range");
  mark_cell_dirty(row, col);
  return program_cell_impl(row, col, g_us);
}

void Crossbar::program_conductances(const util::Matrix& g_us) {
  if (g_us.rows() != cfg_.rows || g_us.cols() != cfg_.cols)
    throw std::invalid_argument("program_conductances: shape mismatch");
  CIM_OBS_SPAN("crossbar.program", obs::Component::kArray);
  // Bulk write: one whole-array invalidation instead of rows*cols per-cell
  // dirty marks (which would only spill into the same rebuild anyway).
  invalidate_conductance_cache();
  for (std::size_t r = 0; r < cfg_.rows; ++r)
    for (std::size_t c = 0; c < cfg_.cols; ++c)
      program_cell_impl(r, c, g_us(r, c));
}

void Crossbar::program_levels(const util::Matrix& levels) {
  if (levels.rows() != cfg_.rows || levels.cols() != cfg_.cols)
    throw std::invalid_argument("program_levels: shape mismatch");
  CIM_OBS_SPAN("crossbar.program", obs::Component::kArray);
  const auto& sch = scheme();
  invalidate_conductance_cache();
  for (std::size_t r = 0; r < cfg_.rows; ++r)
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      const int lvl = static_cast<int>(levels(r, c));
      program_cell_impl(r, c, sch.level_conductance_us(lvl));
    }
}

double Crossbar::read_conductance(std::size_t row, std::size_t col) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("read_conductance: out of range");
  auto& cl = cell(row, col);
  const double g_before = cl.true_conductance_us();  // reads can disturb
  const double g = cl.read_conductance_us(rng_);
  if (cl.true_conductance_us() != g_before) {
    mark_cell_dirty(row, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(row, col, cl.true_conductance_us());
  }
  ++stats_.bit_reads;
  if (obs::enabled()) obs_counters().bit_reads.add(1);
  charge(tech_.t_read_ns,
         tech_.v_read * tech_.v_read * g * tech_.t_read_ns * 1e-3 + tech_.e_read_pj);
  return g;
}

double Crossbar::true_conductance(std::size_t row, std::size_t col) const {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("true_conductance: out of range");
  return cell(row, col).true_conductance_us();
}

double Crossbar::effective_conductance(std::size_t r, std::size_t c,
                                       double g_us) const {
  if (!cfg_.model_ir_drop || g_us <= 0.0) return g_us;
  // First-order IR-drop: the cell sees the wordline segment resistance up to
  // its column plus the bitline segment resistance down to the sense node in
  // series, so G_eff = 1 / (1/G + R_wire_total).
  const double segments =
      static_cast<double>(c + 1) + static_cast<double>(cfg_.rows - r);
  const double r_wire_kohm = cfg_.wire_resistance_ohm * segments * 1e-6;
  return 1.0 / (1.0 / g_us + r_wire_kohm * 1e-3);
}

void Crossbar::mark_cell_dirty(std::size_t r, std::size_t c) {
  if (g_all_dirty_ || !g_cache_built_ || !cfg_.incremental_cache) {
    g_all_dirty_ = true;  // a rebuild is already pending (or forced)
    return;
  }
  auto& word = dirty_bits_[r * dirty_words_per_row_ + (c >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (c & 63);
  if ((word & bit) != 0) return;
  if (dirty_cells_.size() >= dirty_spill_threshold()) {
    invalidate_conductance_cache();  // spill: delta no longer pays off
    return;
  }
  word |= bit;
  dirty_cells_.push_back(static_cast<std::uint32_t>(r * cfg_.cols + c));
}

void Crossbar::ensure_conductance_cache() {
  if (g_cache_built_ && !g_all_dirty_) {
    if (!dirty_cells_.empty()) apply_dirty_cells();
    return;
  }
  rebuild_conductance_cache();
}

void Crossbar::rebuild_conductance_cache() {
  CIM_OBS_SPAN("crossbar.cache.rebuild", obs::Component::kDigital);
  g_true_cache_.resize(cells_.size());
  g_eff_cache_.resize(cells_.size());
  g_ideal_cache_.resize(cells_.size());
  g_eff_sq_colsum_.assign(cfg_.cols, 0.0);
  g_eff_rowsum_.assign(cfg_.rows, 0.0);
  g_ideal_rowsum_.assign(cfg_.rows, 0.0);
  g_true_sum_ = 0.0;
  const auto& sch = scheme();
  std::size_t idx = 0;
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    for (std::size_t c = 0; c < cfg_.cols; ++c, ++idx) {
      const double g = cells_[idx].true_conductance_us();
      g_true_cache_[idx] = g;
      const double ge = effective_conductance(r, c, g);
      g_eff_cache_[idx] = ge;
      g_true_sum_ += g;
      const double gi = sch.level_conductance_us(cells_[idx].target_level());
      g_ideal_cache_[idx] = gi;
      g_eff_sq_colsum_[c] += ge * ge;
      g_eff_rowsum_[r] += ge;
      g_ideal_rowsum_[r] += gi;
    }
  }
  g_eff_col_std_.resize(cfg_.cols);
  for (std::size_t c = 0; c < cfg_.cols; ++c)
    g_eff_col_std_[c] = std::sqrt(g_eff_sq_colsum_[c]);
  g_cache_built_ = true;
  g_all_dirty_ = false;
  dirty_cells_.clear();
  std::fill(dirty_bits_.begin(), dirty_bits_.end(), 0);
  ++stats_.cache_full_rebuilds;
  util::perf::cache_full_rebuilds.fetch_add(1, std::memory_order_relaxed);
}

void Crossbar::apply_dirty_cells() {
  CIM_OBS_SPAN("crossbar.cache.delta", obs::Component::kDigital);
  const auto& sch = scheme();
  for (const std::uint32_t idx : dirty_cells_) {
    const std::size_t r = idx / cfg_.cols;
    const std::size_t c = idx % cfg_.cols;
    const double g = cells_[idx].true_conductance_us();
    if (!cfg_.passive_array) g_true_sum_ += g - g_true_cache_[idx];
    g_true_cache_[idx] = g;
    const double ge_old = g_eff_cache_[idx];
    const double ge = effective_conductance(r, c, g);
    g_eff_cache_[idx] = ge;
    // Fidelity-tier calibration tables: cheap +=delta repair. The sums may
    // drift by ulps from a cold rebuild (different accumulation order);
    // tier-1 consumers are validated with tolerances, never bitwise.
    const double gi_old = g_ideal_cache_[idx];
    const double gi = sch.level_conductance_us(cells_[idx].target_level());
    g_ideal_cache_[idx] = gi;
    g_eff_sq_colsum_[c] += ge * ge - ge_old * ge_old;
    g_eff_rowsum_[r] += ge - ge_old;
    g_ideal_rowsum_[r] += gi - gi_old;
    dirty_bits_[r * dirty_words_per_row_ + (c >> 6)] &=
        ~(std::uint64_t{1} << (c & 63));
  }
  // Refresh the cached column stds wholesale: O(cols) sqrts per delta
  // event is noise next to the per-cell repair above, and the clamp guards
  // against a colsum drifting epsilon-negative through cancellation.
  for (std::size_t c = 0; c < cfg_.cols; ++c)
    g_eff_col_std_[c] = std::sqrt(std::max(0.0, g_eff_sq_colsum_[c]));
  stats_.cache_dirty_cells += dirty_cells_.size();
  dirty_cells_.clear();
  if (cfg_.passive_array) {
    // The sneak background observes g_true_sum_, so keep it bitwise-equal
    // to a rebuild: re-accumulate the (already repaired) flat cache in the
    // same index order the rebuild sums in.
    g_true_sum_ = 0.0;
    for (const double g : g_true_cache_) g_true_sum_ += g;
  }
  ++stats_.cache_delta_updates;
  util::perf::cache_delta_updates.fetch_add(1, std::memory_order_relaxed);
}

void Crossbar::accumulate_currents(std::span<const double> v_rows,
                                   std::span<double> currents,
                                   std::span<double> noise_var,
                                   double& energy) const {
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    const double v = v_rows[r];
    if (v == 0.0) continue;
    util::kernels::vmm_row_accumulate(
        v, g_eff_cache_.data() + r * cfg_.cols, currents.data(),
        noise_var.data(), tech_.read_noise_frac, tech_.t_read_ns, cfg_.cols,
        energy);
  }
}

double Crossbar::sneak_background_per_col(double v_abs_sum) const {
  // Passive 0T1R arrays: half-selected cells leak a sneak background whose
  // magnitude scales with the mean conductance of the unselected matrix.
  const double g_mean = g_true_sum_ / static_cast<double>(cells_.size());
  const double v_mean = v_abs_sum / static_cast<double>(cfg_.rows);
  // One effective 3-cell series path per unselected row.
  return v_mean * (g_mean / 3.0) * 0.1 * static_cast<double>(cfg_.rows - 1);
}

bool Crossbar::apply_read_disturb(util::Rng& rng) {
  // Read disturb: expected number of disturbed cells this cycle.
  if (tech_.read_disturb_prob <= 0.0) return false;
  const double expected =
      tech_.read_disturb_prob * static_cast<double>(cells_.size());
  std::size_t hits = static_cast<std::size_t>(expected);
  if (rng.bernoulli(expected - static_cast<double>(hits))) ++hits;
  for (std::size_t k = 0; k < hits; ++k) {
    const std::size_t idx = rng.uniform_int(cells_.size());
    auto& cl = cells_[idx];
    cl.force_conductance(cl.true_conductance_us() +
                         0.5 * cl.scheme().step_us());
    mark_cell_dirty(idx / cfg_.cols, idx % cfg_.cols);
    if (obs::health_enabled())
      health_monitor().record_disturb(idx / cfg_.cols, idx % cfg_.cols,
                                      cl.true_conductance_us());
  }
  return hits > 0;
}

std::vector<double> Crossbar::vmm(std::span<const double> v_rows,
                                  FidelityTier tier) {
  std::vector<double> currents(cfg_.cols, 0.0);
  vmm(v_rows, currents, tier);
  return currents;
}

void Crossbar::accumulate_currents_plain(std::span<const double> v_rows,
                                         const double* g_flat,
                                         std::span<double> currents) const {
  // One dispatch-table load for the whole call instead of one per row.
  const auto& t = util::simd::active();
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    const double v = v_rows[r];
    if (v == 0.0) continue;
    t.axpy(v, g_flat + r * cfg_.cols, currents.data(), cfg_.cols);
  }
}

Crossbar::ReadSums Crossbar::read_sums(std::span<const double> v_rows,
                                       const std::vector<double>& rowsum) const {
  ReadSums s;
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    const double vv = v_rows[r] * v_rows[r];
    s.v_abs += std::abs(v_rows[r]);
    s.v_sq += vv;
    s.e_row += vv * rowsum[r];
  }
  return s;
}

double Crossbar::read_energy(const ReadSums& s) const {
  return s.e_row * tech_.t_read_ns * 1e-3;
}

double Crossbar::calibrated_noise_scale(const ReadSums& s) const {
  return tech_.read_noise_frac *
         std::sqrt(s.v_sq / static_cast<double>(cfg_.rows));
}

void Crossbar::plane_read_sums(std::span<const std::uint32_t> inputs,
                               int planes, double v,
                               const std::vector<double>& rowsum,
                               std::span<ReadSums> out) {
  // read_sums of each plane's voltages, over the rows the plane drives: an
  // undriven row's terms are +-0, and adding +-0 changes none of these
  // sums (a sum that starts at +0 can never become -0). Each sum is then a
  // serial sum over a plane's rows in row order — the masked accumulation
  // bitplane_accumulate makes — of the per-row terms |v|, v^2 and
  // v^2 * rowsum[r]; the kernel's multiply by 1.0 is exact.
  const std::size_t rows = cfg_.rows;
  auto& terms = bit_planes_scratch_;
  terms.resize(3 * rows);
  const double vv = v * v;
  for (std::size_t r = 0; r < rows; ++r) {
    terms[3 * r] = std::abs(v);
    terms[3 * r + 1] = vv;
    terms[3 * r + 2] = vv * rowsum[r];
  }
  std::array<double, 3 * 16> sums{};
  util::kernels::bitplane_accumulate(1.0, terms.data(), rows, 3,
                                     inputs.data(), planes, sums.data());
  for (std::size_t b = 0; b < out.size(); ++b)
    out[b] = {sums[3 * b], sums[3 * b + 1], sums[3 * b + 2]};
}

double Crossbar::finish_calibrated_read(const ReadSums& s,
                                        std::span<double> currents) {
  if (cfg_.passive_array) {
    const double sneak_per_col = sneak_background_per_col(s.v_abs);
    for (double& i : currents) i += sneak_per_col;
  }
  const double energy = read_energy(s);
  const double scale = calibrated_noise_scale(s);
  if (scale > 0.0) {
    // One serial generator advance keys the whole draw; each column's
    // noise is then a pure counter hash against the cached column std —
    // an order of magnitude cheaper than four xoshiro steps plus a sqrt
    // per column, with the same Irwin-Hall-4 distribution.
    const std::uint64_t key = rng_();
    for (std::size_t c = 0; c < cfg_.cols; ++c)
      currents[c] +=
          scale * g_eff_col_std_[c] * util::Rng::normal_hash(key, c);
  }
  ++stats_.vmm_ops;
  charge(tech_.t_read_ns, energy);
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(1);
    obs_counters().vmm_fast_ops.add(1);
  }
  return energy;
}

double Crossbar::finish_ideal_read(const ReadSums& s) {
  const double energy = read_energy(s);
  ++stats_.vmm_ops;
  charge(tech_.t_read_ns, energy);
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(1);
    obs_counters().vmm_ideal_ops.add(1);
  }
  return energy;
}

void Crossbar::vmm_calibrated(std::span<const double> v_rows,
                              std::span<double> currents) {
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm.fast", obs::Component::kArray);
  ensure_conductance_cache();
  std::fill(currents.begin(), currents.end(), 0.0);
  accumulate_currents_plain(v_rows, g_eff_cache_.data(), currents);
  const double energy =
      finish_calibrated_read(read_sums(v_rows, g_eff_rowsum_), currents);
  if (obs::enabled()) {
    span.add_sim_time_ns(tech_.t_read_ns);
    span.add_energy_pj(energy);
  }
}

void Crossbar::vmm_ideal(std::span<const double> v_rows,
                         std::span<double> currents) {
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm.ideal", obs::Component::kArray);
  ensure_conductance_cache();
  std::fill(currents.begin(), currents.end(), 0.0);
  accumulate_currents_plain(v_rows, g_ideal_cache_.data(), currents);
  const double energy = finish_ideal_read(read_sums(v_rows, g_ideal_rowsum_));
  if (obs::enabled()) {
    span.add_sim_time_ns(tech_.t_read_ns);
    span.add_energy_pj(energy);
  }
}

bool Crossbar::finish_full_read(double v_abs_sum, std::span<double> currents,
                                std::span<const double> noise_var,
                                double energy) {
  if (cfg_.passive_array) {
    const double sneak_per_col = sneak_background_per_col(v_abs_sum);
    for (double& i : currents) i += sneak_per_col;
    if (obs::health_enabled()) {
      auto& h = health_monitor();
      for (std::size_t c = 0; c < cfg_.cols; ++c)
        h.record_sneak_current(c, sneak_per_col);
    }
  }

  // Aggregate read noise per column.
  for (std::size_t c = 0; c < cfg_.cols; ++c)
    currents[c] += rng_.normal(0.0, std::sqrt(noise_var[c]));

  const bool disturbed = apply_read_disturb(rng_);

  ++stats_.vmm_ops;
  charge(tech_.t_read_ns, energy);
  if (obs::enabled()) obs_counters().vmm_ops.add(1);
  return disturbed;
}

double Crossbar::vmm_full(std::span<const double> v_rows,
                          std::span<double> currents) {
  ensure_conductance_cache();
  std::fill(currents.begin(), currents.end(), 0.0);
  vmm_noise_scratch_.assign(cfg_.cols, 0.0);
  double energy = 0.0;
  accumulate_currents(v_rows, currents, vmm_noise_scratch_, energy);
  finish_full_read(cfg_.passive_array ? abs_sum(v_rows) : 0.0, currents,
                   vmm_noise_scratch_, energy);
  return energy;
}

void Crossbar::vmm(std::span<const double> v_rows, std::span<double> currents,
                   FidelityTier tier) {
  if (v_rows.size() != cfg_.rows)
    throw std::invalid_argument("vmm: input size != rows");
  if (currents.size() != cfg_.cols)
    throw std::invalid_argument("vmm: output size != cols");
  if (tier == FidelityTier::kCalibrated) return vmm_calibrated(v_rows, currents);
  if (tier == FidelityTier::kIdeal) return vmm_ideal(v_rows, currents);
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm", obs::Component::kArray);
  const double energy = vmm_full(v_rows, currents);
  if (obs::enabled()) {
    span.add_sim_time_ns(tech_.t_read_ns);
    span.add_energy_pj(energy);
  }
}

void Crossbar::vmm_bit_planes(std::span<const std::uint32_t> inputs,
                              int planes, double v,
                              std::span<double> currents,
                              std::span<double> energy, FidelityTier tier) {
  if (planes < 1 || planes > 16)
    throw std::invalid_argument("vmm_bit_planes: planes in [1,16]");
  if (inputs.size() != cfg_.rows)
    throw std::invalid_argument("vmm_bit_planes: input size != rows");
  const auto np = static_cast<std::size_t>(planes);
  const std::size_t cols = cfg_.cols;
  if (currents.size() != np * cols)
    throw std::invalid_argument("vmm_bit_planes: output size != planes*cols");
  if (energy.size() != np)
    throw std::invalid_argument("vmm_bit_planes: energy size != planes");
  if (tier == FidelityTier::kCalibrated)
    return bit_planes_calibrated(inputs, planes, v, currents, energy);
  if (tier == FidelityTier::kIdeal)
    return bit_planes_ideal(inputs, planes, v, currents, energy);
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm", obs::Component::kArray);
  ensure_conductance_cache();

  // One pass forms every plane's pre-noise currents, noise variance and
  // energy. vmm() skips every 0 V row, so a 0 V request drives none.
  std::fill(currents.begin(), currents.end(), 0.0);
  std::fill(energy.begin(), energy.end(), 0.0);
  vmm_noise_scratch_.assign(np * cols, 0.0);
  if (v != 0.0)
    util::kernels::bitplane_accumulate_noisy(
        v, g_eff_cache_.data(), cfg_.rows, cols, inputs.data(), planes,
        currents.data(), vmm_noise_scratch_.data(), tech_.read_noise_frac,
        tech_.t_read_ns, energy.data());
  std::array<ReadSums, 16> sums{};  // tier 0 needs only the sneak input
  if (cfg_.passive_array)
    plane_read_sums(inputs, planes, v, g_eff_rowsum_,
                    std::span(sums).first(np));

  // Then each plane's stochastic tail, in plane order. Once a read disturb
  // has dirtied a cell, the fused currents of the later planes are stale:
  // those planes are read one at a time, each repairing the caches first,
  // exactly as a vmm() per plane would (vmm_full reuses the noise scratch,
  // whose fused values are dead by then).
  bool stale = false;
  for (std::size_t b = 0; b < np; ++b) {
    const auto cur = currents.subspan(b * cols, cols);
    if (!stale) {
      stale = finish_full_read(
          sums[b].v_abs, cur,
          std::span<const double>(vmm_noise_scratch_).subspan(b * cols, cols),
          energy[b]);
    } else {
      auto& volts = bit_planes_scratch_;
      volts.resize(cfg_.rows);
      for (std::size_t r = 0; r < cfg_.rows; ++r)
        volts[r] = ((inputs[r] >> b) & 1u) != 0 ? v : 0.0;
      energy[b] = vmm_full(volts, cur);
    }
    if (obs::enabled()) {
      span.add_sim_time_ns(tech_.t_read_ns);
      span.add_energy_pj(energy[b]);
    }
  }
}

void Crossbar::bit_planes_calibrated(std::span<const std::uint32_t> inputs,
                                     int planes, double v,
                                     std::span<double> currents,
                                     std::span<double> energy) {
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm.fast", obs::Component::kArray);
  ensure_conductance_cache();
  std::fill(currents.begin(), currents.end(), 0.0);
  if (v != 0.0)
    util::kernels::bitplane_accumulate(v, g_eff_cache_.data(), cfg_.rows,
                                       cfg_.cols, inputs.data(), planes,
                                       currents.data());
  std::array<ReadSums, 16> sums{};
  plane_read_sums(inputs, planes, v, g_eff_rowsum_,
                  std::span(sums).first(energy.size()));
  for (std::size_t b = 0; b < energy.size(); ++b) {
    energy[b] = finish_calibrated_read(
        sums[b], currents.subspan(b * cfg_.cols, cfg_.cols));
    if (obs::enabled()) {
      span.add_sim_time_ns(tech_.t_read_ns);
      span.add_energy_pj(energy[b]);
    }
  }
}

void Crossbar::bit_planes_ideal(std::span<const std::uint32_t> inputs,
                                int planes, double v,
                                std::span<double> currents,
                                std::span<double> energy) {
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm.ideal", obs::Component::kArray);
  ensure_conductance_cache();
  std::fill(currents.begin(), currents.end(), 0.0);
  if (v != 0.0)
    util::kernels::bitplane_accumulate(v, g_ideal_cache_.data(), cfg_.rows,
                                       cfg_.cols, inputs.data(), planes,
                                       currents.data());
  std::array<ReadSums, 16> sums{};
  plane_read_sums(inputs, planes, v, g_ideal_rowsum_,
                  std::span(sums).first(energy.size()));
  for (std::size_t b = 0; b < energy.size(); ++b) {
    energy[b] = finish_ideal_read(sums[b]);
    if (obs::enabled()) {
      span.add_sim_time_ns(tech_.t_read_ns);
      span.add_energy_pj(energy[b]);
    }
  }
}

void Crossbar::vmm_batch(const util::Matrix& v_batch, util::Matrix& out,
                         util::ThreadPool* pool, FidelityTier tier) {
  if (v_batch.cols() != cfg_.rows)
    throw std::invalid_argument("vmm_batch: input width != rows");
  const std::size_t batch = v_batch.rows();
  if (out.rows() != batch || out.cols() != cfg_.cols)
    out = util::Matrix(batch, cfg_.cols);
  if (batch == 0) return;
  auto& pool_ref = pool != nullptr ? *pool : util::ThreadPool::global();
  if (tier == FidelityTier::kCalibrated)
    return vmm_batch_calibrated(v_batch, out, pool_ref);
  if (tier == FidelityTier::kIdeal)
    return vmm_batch_ideal(v_batch, out, pool_ref);
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm_batch", obs::Component::kArray);
  ensure_conductance_cache();

  // One serial draw ties the whole batch into the array's RNG sequence;
  // every per-sample stream derives from it by counter splitting, so the
  // fan-out below is bit-identical for any pool size.
  const std::uint64_t master = rng_();
  batch_energy_scratch_.assign(batch, 0.0);
  auto& sample_energy = batch_energy_scratch_;

  // Attach the monitor before the fan-out: the lazy attach mutates health_,
  // which must not happen concurrently from pool lanes.
  obs::HealthMonitor* hm = cfg_.passive_array && obs::health_enabled()
                               ? &health_monitor()
                               : nullptr;

  auto& p = pool != nullptr ? *pool : util::ThreadPool::global();
  p.parallel_for(0, batch, [&](std::size_t s) {
    const auto v_rows = v_batch.row(s);
    auto currents = out.row(s);
    std::fill(currents.begin(), currents.end(), 0.0);
    thread_local std::vector<double> noise_var;
    noise_var.assign(cfg_.cols, 0.0);
    double energy = 0.0;
    accumulate_currents(v_rows, currents, noise_var, energy);
    if (cfg_.passive_array) {
      const double sneak_per_col = sneak_background_per_col(abs_sum(v_rows));
      for (double& i : currents) i += sneak_per_col;
      // Relaxed-atomic accumulators tolerate the pool's concurrent lanes.
      if (hm != nullptr)
        for (std::size_t c = 0; c < cfg_.cols; ++c)
          hm->record_sneak_current(c, sneak_per_col);
    }
    util::Rng srng = util::Rng::stream(master, 2 * s);
    for (std::size_t c = 0; c < cfg_.cols; ++c)
      currents[c] += srng.normal(0.0, std::sqrt(noise_var[c]));
    sample_energy[s] = energy;
  });

  // Serial epilogue in sample order: stats, then the read disturb each
  // sample accumulated (applied post-batch; see header contract).
  for (std::size_t s = 0; s < batch; ++s) {
    ++stats_.vmm_ops;
    charge(tech_.t_read_ns, sample_energy[s]);
  }
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(batch);
    double batch_energy = 0.0;
    for (const double e : sample_energy) batch_energy += e;
    span.add_sim_time_ns(tech_.t_read_ns * static_cast<double>(batch));
    span.add_energy_pj(batch_energy);
  }
  if (tech_.read_disturb_prob > 0.0) {
    for (std::size_t s = 0; s < batch; ++s) {
      util::Rng drng = util::Rng::stream(master, 2 * s + 1);
      apply_read_disturb(drng);
    }
  }
}

void Crossbar::vmm_batch_calibrated(const util::Matrix& v_batch,
                                    util::Matrix& out,
                                    util::ThreadPool& pool) {
  const std::size_t batch = v_batch.rows();
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm_batch.fast", obs::Component::kArray);
  ensure_conductance_cache();
  // Same counter-split determinism contract as tier 0: one serial master
  // draw, per-sample noise streams — bit-identical for any pool size. No
  // disturb streams (tier 1 skips read disturb).
  const std::uint64_t master = rng_();
  batch_energy_scratch_.assign(batch, 0.0);
  auto& sample_energy = batch_energy_scratch_;
  pool.parallel_for(0, batch, [&](std::size_t s) {
    const auto v_rows = v_batch.row(s);
    auto currents = out.row(s);
    std::fill(currents.begin(), currents.end(), 0.0);
    accumulate_currents_plain(v_rows, g_eff_cache_.data(), currents);
    const ReadSums sums = read_sums(v_rows, g_eff_rowsum_);
    if (cfg_.passive_array) {
      const double sneak_per_col = sneak_background_per_col(sums.v_abs);
      for (double& i : currents) i += sneak_per_col;
    }
    const double scale = calibrated_noise_scale(sums);
    if (scale > 0.0) {
      // Counter-split per sample, counter-hashed per column: pure
      // functions of (master, s, c), so the fan-out stays bit-identical
      // for any pool size without paying a generator per column.
      const std::uint64_t key = util::Rng::stream_seed(master, s);
      for (std::size_t c = 0; c < cfg_.cols; ++c)
        currents[c] +=
            scale * g_eff_col_std_[c] * util::Rng::normal_hash(key, c);
    }
    sample_energy[s] = read_energy(sums);
  });
  for (std::size_t s = 0; s < batch; ++s) {
    ++stats_.vmm_ops;
    charge(tech_.t_read_ns, sample_energy[s]);
  }
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(batch);
    obs_counters().vmm_fast_ops.add(batch);
    double batch_energy = 0.0;
    for (const double e : sample_energy) batch_energy += e;
    span.add_sim_time_ns(tech_.t_read_ns * static_cast<double>(batch));
    span.add_energy_pj(batch_energy);
  }
}

void Crossbar::vmm_batch_ideal(const util::Matrix& v_batch, util::Matrix& out,
                               util::ThreadPool& pool) {
  const std::size_t batch = v_batch.rows();
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm_batch.ideal",
                     obs::Component::kArray);
  ensure_conductance_cache();
  // No RNG at all: tier 2 does not advance the array's stream.
  batch_energy_scratch_.assign(batch, 0.0);
  auto& sample_energy = batch_energy_scratch_;
  pool.parallel_for(0, batch, [&](std::size_t s) {
    const auto v_rows = v_batch.row(s);
    auto currents = out.row(s);
    std::fill(currents.begin(), currents.end(), 0.0);
    accumulate_currents_plain(v_rows, g_ideal_cache_.data(), currents);
    sample_energy[s] = read_energy(read_sums(v_rows, g_ideal_rowsum_));
  });
  for (std::size_t s = 0; s < batch; ++s) {
    ++stats_.vmm_ops;
    charge(tech_.t_read_ns, sample_energy[s]);
  }
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(batch);
    obs_counters().vmm_ideal_ops.add(batch);
    double batch_energy = 0.0;
    for (const double e : sample_energy) batch_energy += e;
    span.add_sim_time_ns(tech_.t_read_ns * static_cast<double>(batch));
    span.add_energy_pj(batch_energy);
  }
}

std::vector<std::vector<double>> Crossbar::vmm_batch(
    std::span<const std::vector<double>> inputs, util::ThreadPool* pool,
    FidelityTier tier) {
  util::Matrix v_batch(inputs.size(), cfg_.rows);
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    if (inputs[s].size() != cfg_.rows)
      throw std::invalid_argument("vmm_batch: input size != rows");
    std::copy(inputs[s].begin(), inputs[s].end(), v_batch.row(s).begin());
  }
  util::Matrix out;
  vmm_batch(v_batch, out, pool, tier);
  std::vector<std::vector<double>> results(inputs.size());
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const auto row = out.row(s);
    results[s].assign(row.begin(), row.end());
  }
  return results;
}

std::vector<double> Crossbar::ideal_vmm(std::span<const double> v_rows) const {
  if (v_rows.size() != cfg_.rows)
    throw std::invalid_argument("ideal_vmm: input size != rows");
  std::vector<double> currents(cfg_.cols, 0.0);
  const auto& sch = scheme();
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    const double v = v_rows[r];
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      currents[c] += v * sch.level_conductance_us(cell(r, c).target_level());
    }
  }
  return currents;
}

namespace {
bool in_window(std::size_t a, std::size_t b, std::size_t window) {
  const std::size_t d = a > b ? a - b : b - a;
  return d <= window;
}
}  // namespace

double Crossbar::ideal_current_with_sneak(std::size_t row, std::size_t col,
                                          std::size_t window) const {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("ideal_current_with_sneak: out of range");
  const auto& sch = scheme();
  const double v = tech_.v_read;
  auto target_g = [&](std::size_t r, std::size_t c) {
    return sch.level_conductance_us(cell(r, c).target_level());
  };
  double i = v * target_g(row, col);
  for (std::size_t r2 = 0; r2 < cfg_.rows; ++r2) {
    if (r2 == row || !in_window(r2, row, window)) continue;
    for (std::size_t c2 = 0; c2 < cfg_.cols; ++c2) {
      if (c2 == col || !in_window(c2, col, window)) continue;
      const double g1 = target_g(row, c2);
      const double g2 = target_g(r2, c2);
      const double g3 = target_g(r2, col);
      if (g1 <= 0.0 || g2 <= 0.0 || g3 <= 0.0) continue;
      i += v / (1.0 / g1 + 1.0 / g2 + 1.0 / g3);
    }
  }
  return i;
}

double Crossbar::read_current_with_sneak(std::size_t row, std::size_t col,
                                         std::size_t window) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("read_current_with_sneak: out of range");
  ensure_conductance_cache();  // hoists the per-cell conductance lookups
  const double* g = g_true_cache_.data();
  const std::size_t cols = cfg_.cols;
  const double v = tech_.v_read;
  double i = v * g[row * cols + col];
  // Every (r', c') with r' != row, c' != col closes a 3-cell series loop
  // (row,c') -> (r',c') -> (r',col); its series conductance adds to the
  // measured current. This is the region-of-detection mechanism the
  // sneak-path test of Kannan et al. exploits; the biasing scheme limits
  // the loops to a window around the target.
  const std::size_t r_lo = window >= row ? 0 : row - window;
  const std::size_t r_hi = std::min(cfg_.rows, window >= cfg_.rows - row
                                                   ? cfg_.rows
                                                   : row + window + 1);
  const std::size_t c_lo = window >= col ? 0 : col - window;
  const std::size_t c_hi =
      std::min(cols, window >= cols - col ? cols : col + window + 1);
  for (std::size_t r2 = r_lo; r2 < r_hi; ++r2) {
    if (r2 == row) continue;
    const double* g_r2 = g + r2 * cols;
    const double g3 = g_r2[col];
    if (g3 <= 0.0) continue;
    const double inv_g3 = 1.0 / g3;
    const double* g_row = g + row * cols;
    for (std::size_t c2 = c_lo; c2 < c_hi; ++c2) {
      if (c2 == col) continue;
      const double g1 = g_row[c2];
      const double g2 = g_r2[c2];
      if (g1 <= 0.0 || g2 <= 0.0) continue;
      i += v / (1.0 / g1 + 1.0 / g2 + inv_g3);
    }
  }
  ++stats_.bit_reads;
  charge(tech_.t_read_ns, v * i * tech_.t_read_ns * 1e-3);
  // The excess over the direct-path current is exactly the sneak-loop
  // contribution — the spatial error signal the health monitor tracks.
  if (obs::health_enabled())
    health_monitor().record_sneak_current(col, i - v * g[row * cols + col]);
  // Measurement noise on the summed current.
  return i + rng_.normal(0.0, tech_.read_noise_frac * i);
}

// --- stateful logic ---------------------------------------------------------

void Crossbar::imply(std::size_t dest_row, std::size_t dest_col,
                     std::size_t src_row, std::size_t src_col) {
  if (dest_row >= cfg_.rows || dest_col >= cfg_.cols || src_row >= cfg_.rows ||
      src_col >= cfg_.cols)
    throw std::out_of_range("imply: out of range");
  auto& dest = cell(dest_row, dest_col);
  const bool p = bit_of(dest);
  const bool q = bit_of(cell(src_row, src_col));
  const bool next = !p || q;  // p -> q
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  if (next != p) {
    mark_cell_dirty(dest_row, dest_col);
    const bool was_stuck = dest.stuck() != device::StuckMode::kNone;
    const auto res =
        dest.write_level(next ? dest.scheme().levels() - 1 : 0, rng_, false);
    if (obs::health_enabled())
      record_health_write(dest_row, dest_col, res, was_stuck);
    charge(res.time_ns, res.energy_pj);
  } else {
    // Conditional write that does not fire still costs the pulse window.
    charge(tech_.t_write_ns, 0.1 * tech_.e_write_pj);
  }
}

void Crossbar::set_false(std::size_t row, std::size_t col) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("set_false: out of range");
  mark_cell_dirty(row, col);
  auto& cl = cell(row, col);
  const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
  const auto res = cl.write_level(0, rng_, false);
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  if (obs::health_enabled()) record_health_write(row, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
}

void Crossbar::magic_not(std::size_t row, std::size_t in_col,
                         std::size_t out_col) {
  const std::size_t in[] = {in_col};
  magic_nor(row, in, out_col);
}

void Crossbar::magic_nor(std::size_t row, std::span<const std::size_t> in_cols,
                         std::size_t out_col) {
  if (row >= cfg_.rows || out_col >= cfg_.cols)
    throw std::out_of_range("magic_nor: out of range");
  if (in_cols.empty()) throw std::invalid_argument("magic_nor: no inputs");
  bool any_one = false;
  for (std::size_t c : in_cols) {
    if (c >= cfg_.cols) throw std::out_of_range("magic_nor: input out of range");
    any_one = any_one || bit_of(cell(row, c));
  }
  auto& out = cell(row, out_col);
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  // MAGIC: the pre-SET output is conditionally RESET when any input is LRS.
  if (any_one) {
    mark_cell_dirty(row, out_col);
    const bool was_stuck = out.stuck() != device::StuckMode::kNone;
    const auto res = out.write_level(0, rng_, false);
    if (obs::health_enabled())
      record_health_write(row, out_col, res, was_stuck);
    charge(res.time_ns, res.energy_pj);
  } else {
    charge(tech_.t_write_ns, 0.1 * tech_.e_write_pj);
  }
}

void Crossbar::majority_write(std::size_t row, std::size_t col, bool v_wl,
                              bool v_bl) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("majority_write: out of range");
  auto& cl = cell(row, col);
  const bool s = bit_of(cl);
  const bool b = !v_bl;
  const int votes = static_cast<int>(s) + static_cast<int>(v_wl) +
                    static_cast<int>(b);
  const bool next = votes >= 2;  // MAJ3(S, V_wl, !V_bl)
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  if (next != s) {
    mark_cell_dirty(row, col);
    const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
    const auto res =
        cl.write_level(next ? cl.scheme().levels() - 1 : 0, rng_, false);
    if (obs::health_enabled()) record_health_write(row, col, res, was_stuck);
    charge(res.time_ns, res.energy_pj);
  } else {
    charge(tech_.t_write_ns, 0.1 * tech_.e_write_pj);
  }
}

double Crossbar::wordline_sense(std::size_t row,
                                const std::vector<bool>& bitline_mask) {
  if (row >= cfg_.rows) throw std::out_of_range("wordline_sense: row");
  if (bitline_mask.size() != cfg_.cols)
    throw std::invalid_argument("wordline_sense: mask size != cols");
  const std::size_t er = effective_row(row);
  const double v = tech_.v_read;
  double i = 0.0;
  double noise_var = 0.0;
  for (std::size_t c = 0; c < cfg_.cols; ++c) {
    if (!bitline_mask[c]) continue;
    const double g = cell(er, c).true_conductance_us();
    const double ic = v * effective_conductance(er, c, g);
    i += ic;
    const double cell_noise = tech_.read_noise_frac * ic;
    noise_var += cell_noise * cell_noise;
  }
  ++stats_.bit_reads;
  charge(tech_.t_read_ns, v * i * tech_.t_read_ns * 1e-3 + tech_.e_read_pj);
  return i + rng_.normal(0.0, std::sqrt(noise_var));
}

bool Crossbar::scout_read(std::size_t r1, std::size_t r2, std::size_t col,
                          ScoutOp op) {
  if (r1 >= cfg_.rows || r2 >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("scout_read: out of range");
  const double v = tech_.v_read;
  const std::size_t er1 = effective_row(r1);
  const std::size_t er2 = effective_row(r2);
  auto& c1 = cell(er1, col);
  auto& c2 = cell(er2, col);
  // Scouting reads can disturb: dirty-mark the cells that actually moved.
  const double g1_before = c1.true_conductance_us();
  const double g1 = c1.read_conductance_us(rng_);
  if (c1.true_conductance_us() != g1_before) {
    mark_cell_dirty(er1, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(er1, col, c1.true_conductance_us());
  }
  const double g2_before = c2.true_conductance_us();
  const double g2 = c2.read_conductance_us(rng_);
  if (c2.true_conductance_us() != g2_before) {
    mark_cell_dirty(er2, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(er2, col, c2.true_conductance_us());
  }
  const double i = v * (g1 + g2);
  stats_.bit_reads += 2;
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  charge(tech_.t_read_ns, v * i * tech_.t_read_ns * 1e-3 + 2 * tech_.e_read_pj);

  // References sit between the three distinguishable current levels,
  // accounting for the HRS leakage floor (critical for low on/off-ratio
  // technologies such as STT-MRAM).
  const double i00 = 2.0 * v * tech_.g_off_us();
  const double i01 = v * (tech_.g_off_us() + tech_.g_on_us());
  const double i11 = 2.0 * v * tech_.g_on_us();
  const double ref_or = 0.5 * (i00 + i01);
  const double ref_and = 0.5 * (i01 + i11);
  switch (op) {
    case ScoutOp::kOr: return i > ref_or;
    case ScoutOp::kAnd: return i > ref_and;
    case ScoutOp::kXor: return i > ref_or && i < ref_and;
  }
  return false;
}

}  // namespace cim::crossbar
