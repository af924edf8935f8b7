#include "crossbar/crossbar.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "util/kernels.hpp"
#include "util/thread_pool.hpp"

namespace cim::crossbar {

namespace {

/// Process-wide registry mirrors of the per-instance CrossbarStats event
/// counts. Resolved once (function-local static), bumped only when
/// telemetry is enabled so the disabled hot path stays one branch; the two
/// cache counters alone are always on (BENCH_JSON's cache_* fields).
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
  obs::Counter& cache_full_rebuilds =
      obs::Registry::global().counter("cache.full_rebuilds");
  obs::Counter& cache_delta_updates =
      obs::Registry::global().counter("cache.delta_updates");
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

/// Stream of an array's seed that keys its tier-0 read noise.
constexpr std::uint64_t kReadNoiseStream = 0x7469657230ULL;  // "tier0"
/// Stream of an array's seed that keys its disturb events. Sweep s keys its
/// row line by counter 2s and its column line by 2s + 1; tier-0 read i keys
/// its read disturb by kReadDisturbCtr | i.
constexpr std::uint64_t kDisturbStream = 0x6469737462ULL;  // "distb"
constexpr std::uint64_t kReadDisturbCtr = std::uint64_t{1} << 63;

/// A keyed word's 53 high bits as a uniform in [0, 1), and in (0, 1].
double unit_word(std::uint64_t w) {
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}
double open_unit_word(std::uint64_t w) {
  return (static_cast<double>(w >> 11) + 1.0) * 0x1.0p-53;
}
/// A keyed word as an index in [0, n): the high word of w * n.
std::size_t index_word(std::uint64_t w, std::size_t n) {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(w) * n) >> 64);
}

/// Span of a read entry point at `tier`: "crossbar.vmm[.fast|.ideal]" for
/// vmm() and vmm_bit_planes, "crossbar.vmm_batch[.fast|.ideal]" for
/// vmm_batch.
obs::SpanHandle& read_span(FidelityTier tier, bool batch) {
  static obs::SpanHandle spans[2][3] = {
      {obs::SpanHandle{"crossbar.vmm", obs::Component::kArray},
       obs::SpanHandle{"crossbar.vmm.fast", obs::Component::kArray},
       obs::SpanHandle{"crossbar.vmm.ideal", obs::Component::kArray}},
      {obs::SpanHandle{"crossbar.vmm_batch", obs::Component::kArray},
       obs::SpanHandle{"crossbar.vmm_batch.fast", obs::Component::kArray},
       obs::SpanHandle{"crossbar.vmm_batch.ideal", obs::Component::kArray}}};
  const int t = tier == FidelityTier::kFull    ? 0
                : tier == FidelityTier::kIdeal ? 2
                                               : 1;
  return spans[batch ? 1 : 0][t];
}

/// body(s) for every s in [begin, end): across `pool`, or in order on the
/// calling thread when there is none. The std::function a pool takes holds
/// only a reference to `body`, so neither path allocates.
template <class Body>
void fan_out(util::ThreadPool* pool, std::size_t begin, std::size_t end,
             const Body& body) {
  if (pool != nullptr) return pool->parallel_for(begin, end, std::cref(body));
  for (std::size_t s = begin; s < end; ++s) body(s);
}

}  // namespace

Crossbar::Crossbar(CrossbarConfig cfg)
    : cfg_(cfg),
      tech_(cfg.tech_override ? *cfg.tech_override
                              : device::technology_params(cfg.tech)),
      rng_(cfg.seed),
      noise_key_(util::Rng::stream_seed(cfg.seed, kReadNoiseStream)),
      disturb_key_(util::Rng::stream_seed(cfg.seed, kDisturbStream)),
      faults_(std::max<std::size_t>(1, cfg.rows), std::max<std::size_t>(1, cfg.cols)) {
  if (cfg_.rows == 0 || cfg_.cols == 0)
    throw std::invalid_argument("Crossbar: empty array");
  cells_.reserve(cfg_.rows * cfg_.cols);
  for (std::size_t i = 0; i < cfg_.rows * cfg_.cols; ++i)
    cells_.emplace_back(tech_, cfg_.levels, rng_);
  dirty_bits_.assign(cfg_.rows * dirty_words_per_row(), 0);
  sweep_walk_row_.assign(cfg_.rows, 0);
  sweep_walk_col_.assign(cfg_.cols, 0);
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
  // Recount the sweep counts from the cells, not the map: a cell stuck by an
  // earlier map or by wear-out stays stuck, and a later map can set a scale
  // back to 1.
  std::fill(sweep_walk_row_.begin(), sweep_walk_row_.end(), 0);
  std::fill(sweep_walk_col_.begin(), sweep_walk_col_.end(), 0);
  for (std::size_t r = 0; r < cfg_.rows; ++r)
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      const auto& cl = cell(r, c);
      if (cl.stuck() != device::StuckMode::kNone ||
          cl.write_disturb_scale() != 1.0) {
        ++sweep_walk_row_[r];
        ++sweep_walk_col_[c];
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

void Crossbar::note_write(std::size_t r, std::size_t c,
                          const device::WriteResult& res, bool was_stuck) {
  const auto& cl = cell(r, c);
  const bool wore_out = !was_stuck && cl.stuck() != device::StuckMode::kNone;
  // A stuck cell is never hit by the sweep; one with a write-disturb scale
  // other than 1 is counted already.
  if (wore_out && cl.write_disturb_scale() == 1.0) {
    ++sweep_walk_row_[r];
    ++sweep_walk_col_[c];
  }
  if (!obs::health_enabled()) return;
  auto& h = health_monitor();
  // One wear unit per programming pulse — matches cell.write_count() exactly.
  h.record_write(r, c, static_cast<std::uint64_t>(res.attempts));
  h.record_program(r, c, cl.target_conductance_us(), cl.true_conductance_us());
  if (wore_out) h.record_wearout(r, c);
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

void Crossbar::after_write(std::size_t r, std::size_t c, bool value_is_one,
                           bool row_line) {
  const bool health = obs::health_enabled();
  // Coupling faults: an up-transition on the aggressor forces the victim to 1
  // (CFid-style idempotent coupling — the bridge conducts the SET pulse). A
  // stuck victim does not move.
  if (value_is_one) {
    for (const auto& fd : faults_.coupling_faults()) {
      if (fd.row == r && fd.col == c) {
        auto& victim = cell(fd.aux_row, fd.aux_col);
        if (victim.stuck() != device::StuckMode::kNone) continue;
        victim.force_conductance(tech_.g_on_us());
        mark_cell_dirty(fd.aux_row, fd.aux_col);
        if (health)
          health_monitor().record_disturb(fd.aux_row, fd.aux_col,
                                          victim.true_conductance_us());
      }
    }
  }
  // Half-select disturb on the same-row, then the same-column neighbours.
  if (tech_.write_disturb_prob > 0.0) {
    const std::uint64_t sweep = sweeps_++;
    if (row_line)
      disturb_line(util::Rng::keyed_word(disturb_key_, 2 * sweep),
                   r * cfg_.cols, 1, cfg_.cols, c, sweep_walk_row_[r] != 0);
    disturb_line(util::Rng::keyed_word(disturb_key_, 2 * sweep + 1), c,
                 cfg_.cols, cfg_.rows, r, sweep_walk_col_[c] != 0);
  }
}

void Crossbar::disturb_line(std::uint64_t key, std::size_t first,
                            std::size_t stride, std::size_t n,
                            std::size_t skip, bool walk) {
  // The draw contract (DESIGN.md §7): each neighbour that is not stuck is
  // hit, independently, with probability min(1, p * its write-disturb
  // scale). A hit takes half a level step; only the cells whose conductance
  // actually moved go on the dirty list. Hits are applied in index order.
  const auto hit = [&](std::size_t k) {
    const std::size_t idx = first + k * stride;
    if (!cells_[idx].disturb_step()) return;
    const std::size_t r = idx / cfg_.cols;
    const std::size_t c = idx % cfg_.cols;
    mark_cell_dirty(r, c);
    if (obs::health_enabled())
      health_monitor().record_disturb(r, c, cells_[idx].true_conductance_us());
  };
  const double p = tech_.write_disturb_prob;
  if (walk) {
    for (std::size_t k = 0; k < n; ++k) {
      if (k == skip) continue;
      const auto& cl = cells_[first + k * stride];
      if (cl.stuck() != device::StuckMode::kNone) continue;
      if (unit_word(util::Rng::keyed_word(key, k)) <
          std::min(1.0, p * cl.write_disturb_scale()))
        hit(k);
    }
    return;
  }
  // One rate over the m = n - 1 neighbours (j-th neighbour: k = j, or j + 1
  // past the skipped cell). Word i's uniform u in (0, 1] gives the gap of
  // misses before the next hit, floor(ln u / ln(1 - p)), so word 0 hits
  // nothing exactly when u <= (1 - p)^m; at p = 1 every gap is 0. A gap is
  // compared with the neighbours left before it is cast, since it can
  // exceed any integer.
  const double log_q = std::log1p(-std::min(1.0, p));
  const std::size_t m = n - 1;
  for (std::size_t i = 0, j = 0; j < m; ++i, ++j) {
    const double gap = std::floor(
        std::log(open_unit_word(util::Rng::keyed_word(key, i))) / log_q);
    if (!(gap < static_cast<double>(m - j))) return;
    j += static_cast<std::size_t>(gap);
    hit(j < skip ? j : j + 1);
  }
}

void Crossbar::write_bit(std::size_t row, std::size_t col, bool value) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("write_bit: out of range");
  write_bit_at(effective_row(row), col, value, true);
}

void Crossbar::write_row(std::size_t row, const std::vector<bool>& bits) {
  if (row >= cfg_.rows || bits.size() > cfg_.cols)
    throw std::out_of_range("write_row: out of range");
  const std::size_t er = effective_row(row);
  for (std::size_t col = 0; col < bits.size(); ++col)
    write_bit_at(er, col, bits[col], false);
}

void Crossbar::write_bit_at(std::size_t er, std::size_t col, bool value,
                            bool row_line) {
  mark_cell_dirty(er, col);
  auto& cl = cell(er, col);
  const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
  const int level = value ? cl.scheme().levels() - 1 : 0;
  const auto res = cl.write_level(level, rng_, cfg_.verified_writes);
  ++stats_.bit_writes;
  if (obs::enabled()) obs_counters().bit_writes.add(1);
  note_write(er, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
  after_write(er, col, value, row_line);
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
  note_write(row, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
  const double mid = 0.5 * (tech_.g_on_us() + tech_.g_off_us());
  after_write(row, col, g_us >= mid);
  return res;
}

device::WriteResult Crossbar::program_cell(std::size_t row, std::size_t col,
                                           double g_us) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("program_cell: out of range");
  if (!std::isfinite(g_us))
    throw std::invalid_argument("program_cell: non-finite conductance");
  mark_cell_dirty(row, col);
  return program_cell_impl(row, col, g_us);
}

void Crossbar::program_conductances(const util::Matrix& g_us) {
  if (g_us.rows() != cfg_.rows || g_us.cols() != cfg_.cols)
    throw std::invalid_argument("program_conductances: shape mismatch");
  for (const double g : g_us.flat())
    if (!std::isfinite(g))
      throw std::invalid_argument(
          "program_conductances: non-finite conductance");
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
  const auto& sch = scheme();
  // Checked before the cast: a NaN or out-of-int level would be UB there.
  for (const double lv : levels.flat())
    if (!(lv >= 0.0 && lv < sch.levels() && lv == std::floor(lv)))
      throw std::invalid_argument(
          "program_levels: level not an integer in [0, levels)");
  CIM_OBS_SPAN("crossbar.program", obs::Component::kArray);
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
  auto& word = dirty_bits_[r * dirty_words_per_row() + (c >> 6)];
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
  ++g_cache_gen_;
  ++stats_.cache_full_rebuilds;
  obs_counters().cache_full_rebuilds.add(1);
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
    dirty_bits_[r * dirty_words_per_row() + (c >> 6)] &=
        ~(std::uint64_t{1} << (c & 63));
  }
  // Refresh the std of each dirty cell's column (a column with several
  // dirty cells gets the same value each time). A clean column's sum has
  // not moved since its std was last set from it. The clamp guards against
  // a colsum drifting epsilon-negative through cancellation.
  for (const std::uint32_t idx : dirty_cells_) {
    const std::size_t c = idx % cfg_.cols;
    g_eff_col_std_[c] = std::sqrt(std::max(0.0, g_eff_sq_colsum_[c]));
  }
  stats_.cache_dirty_cells += dirty_cells_.size();
  dirty_cells_.clear();
  if (cfg_.passive_array) {
    // The sneak background observes g_true_sum_, so keep it bitwise-equal
    // to a rebuild: re-accumulate the (already repaired) flat cache in the
    // same index order the rebuild sums in.
    g_true_sum_ = 0.0;
    for (const double g : g_true_cache_) g_true_sum_ += g;
  }
  ++g_cache_gen_;
  ++stats_.cache_delta_updates;
  obs_counters().cache_delta_updates.add(1);
}

double Crossbar::sneak_background_per_col(double v_abs_sum) const {
  // Passive 0T1R arrays: half-selected cells leak a sneak background whose
  // magnitude scales with the mean conductance of the unselected matrix.
  const double g_mean = g_true_sum_ / static_cast<double>(cells_.size());
  const double v_mean = v_abs_sum / static_cast<double>(cfg_.rows);
  // One effective 3-cell series path per unselected row.
  return v_mean * (g_mean / 3.0) * 0.1 * static_cast<double>(cfg_.rows - 1);
}

template <class Hit>
std::size_t Crossbar::draw_full_read(std::uint64_t read, Hit&& hit) const {
  if (tech_.read_disturb_prob <= 0.0) return 0;
  // Read disturb: expected number of disturbed cells per read. Word 0 of
  // the read's key rounds it up or down, word k + 1 picks hit k's cell.
  const double expected =
      tech_.read_disturb_prob * static_cast<double>(cells_.size());
  const std::uint64_t key =
      util::Rng::keyed_word(disturb_key_, kReadDisturbCtr | read);
  std::size_t hits = static_cast<std::size_t>(expected);
  if (unit_word(util::Rng::keyed_word(key, 0)) <
      expected - static_cast<double>(hits))
    ++hits;
  for (std::size_t k = 0; k < hits; ++k)
    hit(index_word(util::Rng::keyed_word(key, k + 1), cells_.size()));
  return hits;
}

void Crossbar::add_full_read_noise(double v_abs_sum,
                                   std::span<double> currents,
                                   std::span<const double> noise_var,
                                   const double* z) const {
  if (cfg_.passive_array) {
    const double sneak_per_col = sneak_background_per_col(v_abs_sum);
    for (double& i : currents) i += sneak_per_col;
  }
  // Aggregate read noise per column, keyed by (seed, read, column).
  util::kernels::noise_add(noise_var.data(), z, currents.data(), cfg_.cols);
}

double Crossbar::full_read(std::span<const double> v_rows,
                           std::span<double> currents,
                           std::span<double> noise_var,
                           const double* z) const {
  std::fill(currents.begin(), currents.end(), 0.0);
  std::fill(noise_var.begin(), noise_var.end(), 0.0);
  double energy = 0.0;
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    const double v = v_rows[r];
    if (v == 0.0) continue;
    util::kernels::vmm_row_accumulate(
        v, g_eff_cache_.data() + r * cfg_.cols, currents.data(),
        noise_var.data(), tech_.read_noise_frac, tech_.t_read_ns, cfg_.cols,
        energy);
  }
  add_full_read_noise(cfg_.passive_array ? abs_sum(v_rows) : 0.0, currents,
                      noise_var, z);
  return energy;
}

bool Crossbar::finish_full_read(double v_abs_sum, double energy) {
  if (cfg_.passive_array && obs::health_enabled()) {
    auto& h = health_monitor();
    const double sneak_per_col = sneak_background_per_col(v_abs_sum);
    for (std::size_t c = 0; c < cfg_.cols; ++c)
      h.record_sneak_current(c, sneak_per_col);
  }
  const std::uint64_t read = tier0_reads_++;
  ++stats_.vmm_ops;
  charge(tech_.t_read_ns, energy);
  if (obs::enabled()) obs_counters().vmm_ops.add(1);
  // A hit on a stuck cell leaves it as it is; the others take ReRamCell's
  // disturb step (capped at g_on). Only a cell that moved is dirty-marked
  // and health-recorded.
  bool moved = false;
  draw_full_read(read, [&](std::size_t idx) {
    auto& cl = cells_[idx];
    if (cl.stuck() != device::StuckMode::kNone || !cl.disturb_step()) return;
    moved = true;
    mark_cell_dirty(idx / cfg_.cols, idx % cfg_.cols);
    if (obs::health_enabled())
      health_monitor().record_disturb(idx / cfg_.cols, idx % cfg_.cols,
                                      cl.true_conductance_us());
  });
  return moved;
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

const double* Crossbar::tier0_row_energy(const util::simd::KernelTable& t,
                                         double v) {
  if (row_energy_table_ != &t || row_energy_gen_ != g_cache_gen_ ||
      std::bit_cast<std::uint64_t>(row_energy_v_) !=
          std::bit_cast<std::uint64_t>(v)) {
    row_energy_.resize(cfg_.rows * t.row_energy_width(cfg_.cols));
    t.row_energy(v, g_eff_cache_.data(), cfg_.rows, cfg_.cols,
                 tech_.t_read_ns, row_energy_.data());
    row_energy_table_ = &t;
    row_energy_gen_ = g_cache_gen_;
    row_energy_v_ = v;
  }
  return row_energy_.data();
}

const double* Crossbar::next_read_normals(std::size_t reads) {
  noise_z_scratch_.resize(reads * cfg_.cols);
  util::kernels::normal_fill(noise_key_, tier0_reads_ * cfg_.cols,
                             noise_z_scratch_.size(), noise_z_scratch_.data());
  return noise_z_scratch_.data();
}

double Crossbar::reads_full(std::span<const double> v, std::span<double> out,
                            std::span<double> energy, util::ThreadPool* pool) {
  const std::size_t rows = cfg_.rows;
  const std::size_t cols = cfg_.cols;
  const std::size_t n = energy.size();
  // Runs of reads that see one array state. With more than one lane to fan
  // out to, a run ends at the first read whose keyed disturb draw hits a
  // cell (no draw depends on the array, so it is drawn ahead). Each read of
  // the run is then finished in read order, its hits applied as drawn, so
  // the next run's cache repair picks them up. Read s0 + k of a run takes
  // noise scratch k.
  const bool fan = pool != nullptr && pool->thread_count() > 1;
  ensure_conductance_cache();
  vmm_noise_scratch_.resize((fan ? n : 1) * cols);
  const double* z = next_read_normals(n);
  std::size_t s0 = 0;
  const auto compute = [&](std::size_t s) {
    energy[s] =
        full_read(v.subspan(s * rows, rows), out.subspan(s * cols, cols),
                  std::span(vmm_noise_scratch_).subspan((s - s0) * cols, cols),
                  z + s * cols);
  };
  const std::uint64_t first = tier0_reads_;
  double total = 0.0;
  for (std::size_t s1 = 0; s0 < n; s0 = s1) {
    s1 = s0 + 1;
    if (fan)
      while (draw_full_read(first + s1 - 1, [](std::size_t) {}) == 0 &&
             s1 < n)
        ++s1;
    ensure_conductance_cache();
    fan_out(pool, s0, s1, compute);
    for (std::size_t s = s0; s < s1; ++s) {
      finish_full_read(
          cfg_.passive_array ? abs_sum(v.subspan(s * rows, rows)) : 0.0,
          energy[s]);
      total += energy[s];
    }
  }
  return total;
}

double Crossbar::reads_fast(FidelityTier tier, std::span<const double> v,
                            std::span<double> out, std::span<double> energy,
                            util::ThreadPool* pool) {
  const std::size_t rows = cfg_.rows;
  const std::size_t cols = cfg_.cols;
  const std::size_t n = energy.size();
  const bool ideal = tier == FidelityTier::kIdeal;
  ensure_conductance_cache();
  const double* g = ideal ? g_ideal_cache_.data() : g_eff_cache_.data();
  fan_out(pool, 0, n, [&](std::size_t s) {
    const auto currents = out.subspan(s * cols, cols);
    std::fill(currents.begin(), currents.end(), 0.0);
    accumulate_currents_plain(v.subspan(s * rows, rows), g, currents);
  });
  // The tails in read order: tier 1 draws its noise key in its tail.
  const auto& rowsum = ideal ? g_ideal_rowsum_ : g_eff_rowsum_;
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const ReadSums sums = read_sums(v.subspan(s * rows, rows), rowsum);
    energy[s] = ideal ? finish_ideal_read(sums)
                      : finish_calibrated_read(sums, out.subspan(s * cols, cols));
    total += energy[s];
  }
  return total;
}

void Crossbar::vmm(std::span<const double> v_rows, std::span<double> currents,
                   FidelityTier tier) {
  if (v_rows.size() != cfg_.rows)
    throw std::invalid_argument("vmm: input size != rows");
  if (currents.size() != cfg_.cols)
    throw std::invalid_argument("vmm: output size != cols");
  obs::Span span{read_span(tier, /*batch=*/false)};
  double energy = 0.0;
  if (tier == FidelityTier::kFull)
    reads_full(v_rows, currents, {&energy, 1}, nullptr);
  else
    reads_fast(tier, v_rows, currents, {&energy, 1}, nullptr);
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
  if (currents.size() != np * cfg_.cols)
    throw std::invalid_argument("vmm_bit_planes: output size != planes*cols");
  if (energy.size() != np)
    throw std::invalid_argument("vmm_bit_planes: energy size != planes");
  obs::Span span{read_span(tier, /*batch=*/false)};
  if (tier == FidelityTier::kFull)
    bit_planes_full(inputs, planes, v, currents, energy);
  else
    bit_planes_fast(tier, inputs, planes, v, currents, energy);
  if (obs::enabled())
    for (const double e : energy) {
      span.add_sim_time_ns(tech_.t_read_ns);
      span.add_energy_pj(e);
    }
}

void Crossbar::bit_planes_full(std::span<const std::uint32_t> inputs,
                               int planes, double v,
                               std::span<double> currents,
                               std::span<double> energy) {
  const auto np = static_cast<std::size_t>(planes);
  const std::size_t cols = cfg_.cols;
  ensure_conductance_cache();

  // One pass forms every plane's pre-noise currents, noise variance and
  // energy. vmm() skips every 0 V row, so a 0 V request drives none. The
  // row-energy table, the width and the kernel come from one table.
  std::fill(currents.begin(), currents.end(), 0.0);
  std::fill(energy.begin(), energy.end(), 0.0);
  vmm_noise_scratch_.assign(np * cols, 0.0);
  if (v != 0.0) {
    const auto& t = util::simd::active();
    t.bitplane_accumulate_full(
        v, g_eff_cache_.data(), cfg_.rows, cols, inputs.data(), planes,
        tech_.read_noise_frac, tier0_row_energy(t, v),
        t.row_energy_width(cols), currents.data(), vmm_noise_scratch_.data(),
        energy.data());
  }
  std::array<ReadSums, 16> sums{};  // tier 0 needs only the sneak input
  if (cfg_.passive_array)
    plane_read_sums(inputs, planes, v, g_eff_rowsum_,
                    std::span(sums).first(np));

  // Then each plane's noise, draws and commit, in plane order; one kernel
  // call draws every plane's noise (plane b is read tier0_reads_ + b). Once
  // a read disturb has moved a cell, the fused currents of the later
  // planes are stale: those planes are read one at a time, each repairing
  // the caches first, exactly as a vmm() per plane would (reads_full
  // reuses the noise scratches, whose fused values are dead by then, and
  // draws the same normals for the same read).
  const double* z = next_read_normals(np);
  bool stale = false;
  for (std::size_t b = 0; b < np; ++b) {
    const auto cur = currents.subspan(b * cols, cols);
    if (stale) {
      auto& volts = bit_planes_scratch_;
      volts.resize(cfg_.rows);
      for (std::size_t r = 0; r < cfg_.rows; ++r)
        volts[r] = ((inputs[r] >> b) & 1u) != 0 ? v : 0.0;
      reads_full(volts, cur, energy.subspan(b, 1), nullptr);
      continue;
    }
    add_full_read_noise(
        sums[b].v_abs, cur,
        std::span<const double>(vmm_noise_scratch_).subspan(b * cols, cols),
        z + b * cols);
    stale = finish_full_read(sums[b].v_abs, energy[b]);
  }
}

void Crossbar::bit_planes_fast(FidelityTier tier,
                               std::span<const std::uint32_t> inputs,
                               int planes, double v,
                               std::span<double> currents,
                               std::span<double> energy) {
  const bool ideal = tier == FidelityTier::kIdeal;
  ensure_conductance_cache();
  std::fill(currents.begin(), currents.end(), 0.0);
  if (v != 0.0)
    util::kernels::bitplane_accumulate(
        v, ideal ? g_ideal_cache_.data() : g_eff_cache_.data(), cfg_.rows,
        cfg_.cols, inputs.data(), planes, currents.data());
  std::array<ReadSums, 16> sums{};
  plane_read_sums(inputs, planes, v, ideal ? g_ideal_rowsum_ : g_eff_rowsum_,
                  std::span(sums).first(energy.size()));
  for (std::size_t b = 0; b < energy.size(); ++b)
    energy[b] = ideal ? finish_ideal_read(sums[b])
                      : finish_calibrated_read(
                            sums[b], currents.subspan(b * cfg_.cols, cfg_.cols));
}

void Crossbar::vmm_batch(const util::Matrix& v_batch, util::Matrix& out,
                         util::ThreadPool* pool, FidelityTier tier) {
  if (v_batch.cols() != cfg_.rows)
    throw std::invalid_argument("vmm_batch: input width != rows");
  const std::size_t batch = v_batch.rows();
  if (out.rows() != batch || out.cols() != cfg_.cols)
    out = util::Matrix(batch, cfg_.cols);
  if (batch == 0) return;
  auto* p = pool != nullptr ? pool : &util::ThreadPool::global();
  obs::Span span{read_span(tier, /*batch=*/true)};
  batch_energy_scratch_.resize(batch);
  const auto e = std::span(batch_energy_scratch_);
  const double energy =
      tier == FidelityTier::kFull
          ? reads_full(v_batch.flat(), out.flat(), e, p)
          : reads_fast(tier, v_batch.flat(), out.flat(), e, p);
  if (obs::enabled()) {
    span.add_sim_time_ns(tech_.t_read_ns * static_cast<double>(batch));
    span.add_energy_pj(energy);
  }
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
    note_write(dest_row, dest_col, res, was_stuck);
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
  note_write(row, col, res, was_stuck);
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
    note_write(row, out_col, res, was_stuck);
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
    note_write(row, col, res, was_stuck);
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
