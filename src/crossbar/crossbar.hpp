/// \file crossbar.hpp
/// \brief ReRAM crossbar array simulator (Section II.B.2, Fig. 4a).
///
/// The crossbar is the storage *and* compute fabric of a CIM core:
///
///   - **Analog VMM**: applying a voltage vector V to the wordlines produces
///     per-bitline currents I_c = sum_r V_r * G(r,c) — n MAC operations in
///     O(1) time (Fig. 4a). Non-idealities modelled: programming variation,
///     read noise, read disturb, wire IR-drop, and (for passive 0T1R arrays)
///     sneak-path currents.
///   - **Digital bit storage** with the RAM-style fault behaviours of
///     Section III (address-decoder aliasing, coupling, stuck-at cells) —
///     the substrate the March-test engine runs against.
///   - **Stateful logic** (Section IV.A): material implication (IMPLY),
///     MAGIC NOR/NOT, ReVAMP-style majority write, and Scouting-logic reads,
///     which the technology mappers of the EDA module target.
///
/// All operations account time (ns) and energy (pJ) into CrossbarStats; the
/// per-operation dynamic energy feeds the on-line power monitor of
/// Section III.C / Fig. 7.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "crossbar/fidelity.hpp"
#include "device/reram_cell.hpp"
#include "device/technology.hpp"
#include "fault/fault_map.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace cim::util {
class ThreadPool;
}
namespace cim::util::simd {
struct KernelTable;
}
namespace cim::obs {
class HealthMonitor;
}

namespace cim::crossbar {

/// Static configuration of one crossbar array.
struct CrossbarConfig {
  std::size_t rows = 64;
  std::size_t cols = 64;
  device::Technology tech = device::Technology::kReRamHfOx;
  int levels = 16;                 ///< programmable conductance levels
  bool model_ir_drop = true;       ///< first-order wire-resistance attenuation
  double wire_resistance_ohm = 2.0;///< per wire segment (Ohm)
  bool passive_array = false;      ///< 0T1R: VMM reads suffer sneak paths
  bool verified_writes = false;    ///< program-and-verify on analog writes
  /// Dirty-tracked conductance-cache maintenance: mutating ops record the
  /// touched cells and the next VMM repairs the caches in O(|dirty|) instead
  /// of rebuilding O(rows*cols). Outputs are bit-identical either way; set
  /// to false to force the legacy whole-cache rebuild (the baseline the
  /// write/read-interleave bench and the coherence tests compare against).
  bool incremental_cache = true;
  std::uint64_t seed = 42;         ///< RNG stream for all stochastic behaviour
  /// When set, overrides the preset parameters of `tech` — used by
  /// reliability experiments that sweep endurance, noise or disturb rates.
  std::optional<device::TechnologyParams> tech_override;
};

/// Operation counters and cost accumulation.
struct CrossbarStats {
  std::uint64_t bit_reads = 0;
  std::uint64_t bit_writes = 0;
  std::uint64_t analog_writes = 0;
  std::uint64_t vmm_ops = 0;
  std::uint64_t logic_ops = 0;
  double time_ns = 0.0;
  double energy_pj = 0.0;
  // Conductance-cache maintenance (see "Crossbar state caches and dirty
  // tracking" in DESIGN.md): benches use these to prove a write/VMM
  // interleave took the O(|dirty|) path instead of O(rows*cols) rebuilds.
  std::uint64_t cache_full_rebuilds = 0;  ///< whole-array cache rebuilds
  std::uint64_t cache_delta_updates = 0;  ///< dirty-list delta repairs
  std::uint64_t cache_dirty_cells = 0;    ///< cells repaired across all deltas
};

/// Scouting-logic read operations (Xie et al., ISVLSI'17).
enum class ScoutOp { kOr, kAnd, kXor };

/// Physical array geometry (rows x cols) — the footprint query compiled
/// micro-op programs are checked against by the EDA static verifier.
struct Geometry {
  std::size_t rows = 0;
  std::size_t cols = 0;

  bool contains(std::size_t row, std::size_t col) const {
    return row < rows && col < cols;
  }
  std::size_t cell_count() const { return rows * cols; }
};

/// A ReRAM crossbar array with configurable non-idealities.
class Crossbar {
 public:
  explicit Crossbar(CrossbarConfig cfg);

  // Every cell points at this array's tech_: a copy or a moved-to array
  // would read the source's parameters, freed once the source is gone.
  Crossbar(const Crossbar&) = delete;
  Crossbar& operator=(const Crossbar&) = delete;

  std::size_t rows() const { return cfg_.rows; }
  std::size_t cols() const { return cfg_.cols; }
  Geometry geometry() const { return {cfg_.rows, cfg_.cols}; }
  const CrossbarConfig& config() const { return cfg_; }
  const device::TechnologyParams& tech() const { return tech_; }
  const device::LevelScheme& scheme() const { return cells_.front().scheme(); }

  /// Injects a fault map: cell faults are pushed into the cells, array-level
  /// faults (decoder aliasing, coupling) are kept and honoured by every
  /// subsequent addressed operation.
  void apply_faults(const fault::FaultMap& map);

  /// Currently applied fault map (empty map if none was applied).
  const fault::FaultMap& faults() const { return faults_; }

  // --- digital bit interface (logic 1 = LRS = top level) -------------------

  /// Writes one bit through the (possibly faulty) row decoder; triggers
  /// coupling faults and neighbour write-disturb.
  void write_bit(std::size_t row, std::size_t col, bool value);

  /// Writes columns [0, bits.size()) of one row in one write cycle, through
  /// the row decoder. Each cell takes the write, cost and coupling faults
  /// of write_bit, in column order. The row's cells are all selected, so
  /// the half-select sweep runs on each written column's line only: the
  /// other rows take the column-line hits a write_bit loop would, and the
  /// row takes none. Throws std::out_of_range on a bad row or more bits
  /// than columns.
  void write_row(std::size_t row, const std::vector<bool>& bits);

  /// Reads one bit (threshold at mid conductance) through the row decoder.
  bool read_bit(std::size_t row, std::size_t col);

  // --- analog interface -----------------------------------------------------

  /// Programs one cell to an analog conductance target (uS). Throws
  /// std::invalid_argument on a non-finite target.
  device::WriteResult program_cell(std::size_t row, std::size_t col, double g_us);

  /// Programs the whole array from a matrix of conductances (uS). Throws
  /// std::invalid_argument, before any write, on a non-finite entry.
  void program_conductances(const util::Matrix& g_us);

  /// Programs the whole array from a matrix of integer levels. Throws
  /// std::invalid_argument, before any write, on an entry that is not an
  /// integer in [0, levels).
  void program_levels(const util::Matrix& levels);

  /// Noisy single-cell conductance read (uS).
  double read_conductance(std::size_t row, std::size_t col);

  /// True (noiseless) conductance — test oracle only.
  double true_conductance(std::size_t row, std::size_t col) const;

  /// Read-only view of one cell (stored and target conductance, stuck mode,
  /// wear) — test oracle only.
  const device::ReRamCell& cell_state(std::size_t row, std::size_t col) const {
    if (row >= cfg_.rows || col >= cfg_.cols)
      throw std::out_of_range("cell_state: out of range");
    return cell(row, col);
  }

  /// Analog vector-matrix multiply: applies `v_rows` volts on the wordlines
  /// and returns the bitline currents in uA. At the default tier
  /// (FidelityTier::kFull) models IR-drop, read noise, read disturb and
  /// (for passive arrays) sneak-path background current; the cheaper tiers
  /// trade model fidelity for throughput (see fidelity.hpp). Tier-0 read
  /// noise and read disturb are keyed and draw nothing from rng(): column c
  /// of the array's i-th tier-0 read (counted from construction;
  /// reset_stats() does not reset it) adds its std times the standard
  /// normal for counter i * cols + c of a key derived from the seed
  /// (util::kernels::normal_fill), and the read's disturb hits are keyed
  /// words of i (see draw_full_read).
  std::vector<double> vmm(std::span<const double> v_rows,
                          FidelityTier tier = FidelityTier::kFull);

  /// Allocation-free variant: writes the bitline currents into `currents`
  /// (size cols). The steady-state hot path — all scratch lives in member
  /// buffers, so interleaved write/VMM loops never touch the allocator.
  void vmm(std::span<const double> v_rows, std::span<double> currents,
           FidelityTier tier = FidelityTier::kFull);

  /// Reads every input bit plane of one bit-serial request in one call.
  /// Plane b (planes in [1, 16]) drives `v` volts on the rows whose
  /// `inputs[r]` has bit b set and 0 V on the others; its bitline currents
  /// land in currents[b*cols, (b+1)*cols) and the energy charged for it in
  /// energy[b]. Currents, energies, stats, RNG draws and cache repairs are
  /// bit-identical to `planes` calls of vmm() on those voltages in plane
  /// order, at every tier. At kCalibrated and kIdeal each row's products
  /// are formed once and shared by every plane whose bit is set
  /// (util::kernels::bitplane_accumulate). At kFull each plane walks its
  /// driven rows (KernelTable::bitplane_accumulate_full), and each row's
  /// energy comes from a table built on the first such read after the
  /// conductances, `v` or the kernel table change.
  /// At kFull, once a plane's read disturb dirties a cell, the remaining
  /// planes are read one at a time from the repaired array. Counts one
  /// `vmm_ops` per plane. Throws std::invalid_argument on a bad plane
  /// count or span size.
  void vmm_bit_planes(std::span<const std::uint32_t> inputs, int planes,
                      double v, std::span<double> currents,
                      std::span<double> energy,
                      FidelityTier tier = FidelityTier::kFull);

  /// Batched analog VMM: row b of `v_batch` is one input vector; result b
  /// lands in row b of `out` (resized only on shape change, so the storage
  /// is reused across batches). At every tier and for any pool size (the
  /// global pool when null) the call equals vmm() on each row in order,
  /// bitwise: currents, stats, last_op_energy_pj(), read disturb, cache
  /// repairs and the generator position. Only the current accumulation
  /// fans out across `pool`; generator draws, stats, charge and disturb
  /// hits are committed serially in read order. At kFull a fan-out stops
  /// at the first sample whose read disturb draws a hit, and the next one
  /// reads the array that hit left.
  void vmm_batch(const util::Matrix& v_batch, util::Matrix& out,
                 util::ThreadPool* pool = nullptr,
                 FidelityTier tier = FidelityTier::kFull);

  /// Ideal VMM on the *target* conductances — the mathematical oracle.
  std::vector<double> ideal_vmm(std::span<const double> v_rows) const;

  /// Single-cell read current including 3-cell sneak-path contributions
  /// (the mechanism exploited by the sneak-path test of Section III.B).
  /// `window` restricts the contributing loops to cells within that many
  /// rows/columns of the target (biasing scheme of the parallel test);
  /// SIZE_MAX means the whole array.
  double read_current_with_sneak(std::size_t row, std::size_t col,
                                 std::size_t window = SIZE_MAX);

  /// Oracle counterpart of read_current_with_sneak: same loop sum evaluated
  /// on the *target* (programmed) conductances, noiseless and free.
  double ideal_current_with_sneak(std::size_t row, std::size_t col,
                                  std::size_t window = SIZE_MAX) const;

  // --- stateful logic (Section IV.A) ---------------------------------------

  /// Material implication, result into dest: S_dest <- S_dest -> S_src
  /// (paper's convention: NS_p = S_p -> S_q).
  void imply(std::size_t dest_row, std::size_t dest_col, std::size_t src_row,
             std::size_t src_col);

  /// Unconditional RESET to logic 0 (the FALSE operation completing the
  /// {IMPLY, FALSE} universal set).
  void set_false(std::size_t row, std::size_t col);

  /// MAGIC NOT within a row: out <- NOT in. Precondition: out cell holds 1.
  void magic_not(std::size_t row, std::size_t in_col, std::size_t out_col);

  /// MAGIC k-input NOR within a row. Precondition: out cell holds 1; the
  /// operation conditionally RESETs it. Input states are unchanged.
  void magic_nor(std::size_t row, std::span<const std::size_t> in_cols,
                 std::size_t out_col);

  /// ReVAMP majority write: S <- MAJ3(S, v_wl, NOT v_bl).
  void majority_write(std::size_t row, std::size_t col, bool v_wl, bool v_bl);

  /// Wordline current sense with selective bitline activation: applies the
  /// read voltage on the bitlines whose mask bit is set and senses the
  /// summed current of `row` (uA). The primitive behind ESOP cube
  /// evaluation [69]: a row of cube-mask cells conducts iff some stored-1
  /// cell sees an active bitline.
  double wordline_sense(std::size_t row, const std::vector<bool>& bitline_mask);

  /// Scouting-logic read of two cells in one column: senses the summed
  /// current of rows r1, r2 against the op's reference(s).
  bool scout_read(std::size_t r1, std::size_t r2, std::size_t col, ScoutOp op);

  // --- accounting ------------------------------------------------------------

  const CrossbarStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CrossbarStats{}; }

  /// Energy (pJ) consumed by the most recent operation — the signal tapped by
  /// the on-line power monitor.
  double last_op_energy_pj() const { return last_op_energy_pj_; }

  util::Rng& rng() { return rng_; }

  // --- device-health observability -----------------------------------------

  /// Registry name this array's health monitor uses. Must be called before
  /// the first health event (default: an auto-assigned "crossbar.<n>").
  void set_health_name(std::string name) { health_name_ = std::move(name); }

  /// The spatial health monitor attached to this array, lazily registered
  /// in obs::HealthRegistry on first use. Hot paths only reach it behind
  /// `obs::health_enabled()`; calling this directly (tests, exporters)
  /// attaches it regardless of mode.
  obs::HealthMonitor& health_monitor();

 private:
  device::ReRamCell& cell(std::size_t r, std::size_t c) {
    return cells_[r * cfg_.cols + c];
  }
  const device::ReRamCell& cell(std::size_t r, std::size_t c) const {
    return cells_[r * cfg_.cols + c];
  }

  /// Row actually selected by the decoder (honours address-decoder faults).
  std::size_t effective_row(std::size_t r) const;

  /// Shared body of program_cell and the bulk programming loops: performs
  /// the write + accounting + side effects but leaves cache dirty-marking
  /// to the caller (bulk programming marks the whole array once).
  device::WriteResult program_cell_impl(std::size_t row, std::size_t col,
                                        double g_us);

  /// Shared body of write_bit and write_row on decoded row `er`; the sweep
  /// skips the row line unless `row_line` is set.
  void write_bit_at(std::size_t er, std::size_t col, bool value, bool row_line);

  /// Post-write side effects: coupling-fault victims and neighbour disturb.
  /// Every write takes one sweep index; `row_line` false (write_row) leaves
  /// the row line out of its sweep.
  void after_write(std::size_t r, std::size_t c, bool value_is_one,
                   bool row_line = true);

  /// Half-select disturb sweep over one line: the `n` cells at
  /// `first + k * stride`, skipping k == `skip` (the written cell), with
  /// uniforms from the keyed words of `key` (one key per line of a sweep).
  /// Set `walk` when the line holds a cell that changes a neighbour's rate
  /// (see sweep_walk_row_): each neighbour that is not stuck then draws
  /// word k against min(1, p * its write-disturb scale). Otherwise every
  /// neighbour is hit at one rate min(1, p), and the hits are found by
  /// geometric gaps, so only the cells hit are loaded and a line with no
  /// hit costs one word.
  void disturb_line(std::uint64_t key, std::size_t first, std::size_t stride,
                    std::size_t n, std::size_t skip, bool walk);

  /// Bookkeeping for one completed write on (r, c), shared by every write
  /// entry point: a cell that wore out on this write joins its line's sweep
  /// counts, and with health on the monitor records the wear (pulses), the
  /// drift baseline and the in-field wear-out.
  void note_write(std::size_t r, std::size_t c, const device::WriteResult& res,
                  bool was_stuck);

  /// IR-drop-attenuated effective conductance of a cell during VMM.
  double effective_conductance(std::size_t r, std::size_t c, double g_us) const;

  bool bit_of(const device::ReRamCell& cell) const;
  double charge(double time_ns, double energy_pj);

  /// Brings the cached true/effective conductance matrices up to date.
  /// Every operation that can change a stored conductance (writes, fault
  /// injection, disturb, drift-prone reads) must either mark the exact
  /// cells it touched via mark_cell_dirty() or declare the whole array
  /// stale via invalidate_conductance_cache(). With `incremental_cache`
  /// on, a pending dirty list is repaired in O(|dirty|); the repaired
  /// caches are bitwise-equal to a full rebuild (effective conductance is
  /// a pure per-cell function, and g_true_sum_ is re-accumulated in
  /// rebuild order whenever it is observable, i.e. for passive arrays).
  void ensure_conductance_cache();

  /// Whole-array invalidation: the next ensure_conductance_cache() does a
  /// full O(rows*cols) rebuild. Used by bulk mutations (fault injection,
  /// array-wide programming) and as the dirty-list spill target.
  void invalidate_conductance_cache() {
    g_all_dirty_ = true;
    dirty_cells_.clear();
  }

  /// Records one mutated cell for the next delta repair; spills to
  /// invalidate_conductance_cache() once the list stops paying off.
  void mark_cell_dirty(std::size_t r, std::size_t c);

  /// Words of one row of the dirty bitset.
  std::size_t dirty_words_per_row() const { return (cfg_.cols + 63) / 64; }

  /// Dirty-list length at which delta bookkeeping loses to a rebuild.
  std::size_t dirty_spill_threshold() const {
    return std::max<std::size_t>(32, cells_.size() / 8);
  }

  void rebuild_conductance_cache();  ///< full O(rows*cols) rebuild
  void apply_dirty_cells();          ///< O(|dirty|) delta repair

  // Every tier splits one read into a pure compute over the conductance
  // caches and a serial commit in read order: generator draws, stats,
  // charge, obs counters and read-disturb hits. vmm() and vmm_bit_planes
  // run both per read; vmm_batch fans out only the compute.

  /// The reads of vmm() (one) and vmm_batch (energy.size()): read s drives
  /// v[s*rows, (s+1)*rows), writes out[s*cols, (s+1)*cols) and the energy
  /// charged for it to energy[s], and the compute fans out across `pool`
  /// when it is not null. Returns the energy summed in read order.
  ///
  /// Tier 0 computes (full_read) and finishes (finish_full_read) runs of
  /// reads that see one array state. With more than one lane, a run ends at
  /// the first read whose keyed disturb draw (draw_full_read of its read
  /// index) hits a cell.
  double reads_full(std::span<const double> v, std::span<double> out,
                    std::span<double> energy, util::ThreadPool* pool);
  /// Tiers 1 and 2 (`tier` picks the conductance cache, the row sums and
  /// the tail): the current accumulation fans out, then each read's tail
  /// (finish_calibrated_read, which draws tier 1's noise key, or
  /// finish_ideal_read) runs in read order.
  double reads_fast(FidelityTier tier, std::span<const double> v,
                    std::span<double> out, std::span<double> energy,
                    util::ThreadPool* pool);

  /// vmm_bit_planes bodies at tier 0, and at tiers 1/2 picked as in
  /// reads_fast.
  void bit_planes_full(std::span<const std::uint32_t> inputs, int planes,
                       double v, std::span<double> currents,
                       std::span<double> energy);
  void bit_planes_fast(FidelityTier tier,
                       std::span<const std::uint32_t> inputs, int planes,
                       double v, std::span<double> currents,
                       std::span<double> energy);

  /// Read disturb of tier-0 read `read` (its index from construction), from
  /// the keyed words of that index: floor(E) + Bernoulli(E - floor(E))
  /// hits, with E = read_disturb_prob * cells, each a cell uniform over the
  /// array, passed to `hit` as a flat index. Returns the hit count. A pure
  /// function of (seed, read): no draw depends on the array's state.
  template <class Hit>
  std::size_t draw_full_read(std::uint64_t read, Hit&& hit) const;

  /// Tier-0 compute of one read, pure over the caches: currents and noise
  /// variances (noise_var, cols) from g_eff_cache_, then
  /// add_full_read_noise. Returns the read's energy.
  double full_read(std::span<const double> v_rows, std::span<double> currents,
                   std::span<double> noise_var, const double* z) const;
  /// Passive sneak background (`v_abs_sum` is read only for passive
  /// arrays) and per-column read noise sqrt(noise_var[c]) * z[c], with `z`
  /// the read's keyed normals.
  void add_full_read_noise(double v_abs_sum, std::span<double> currents,
                           std::span<const double> noise_var,
                           const double* z) const;
  /// Tier-0 commit of one read: the sneak background's health record,
  /// tier0_reads_, stats and charge, then the read's disturb hits
  /// (draw_full_read) applied as drawn. A hit on a stuck cell leaves it as
  /// it is; the others take ReRamCell::disturb_step. Returns true when a
  /// hit moved (and dirty-marked) a cell, i.e. the next read must repair
  /// the caches.
  bool finish_full_read(double v_abs_sum, double energy);

  /// Tier-0 bit-plane reads' row-energy table for kernel table `t` at `v`
  /// (KernelTable::row_energy over g_eff_cache_). Rebuilt when the
  /// conductance-cache generation, `v` or `t` differ from the ones it was
  /// built for. Requires a valid cache.
  const double* tier0_row_energy(const util::simd::KernelTable& t, double v);

  /// Keyed standard normals of the next `reads` tier-0 reads, reads x cols
  /// in noise_z_scratch_: read tier0_reads_ + i, column c is counter
  /// (tier0_reads_ + i) * cols + c of noise_key_ (util::kernels::
  /// normal_fill). Does not count the reads.
  const double* next_read_normals(std::size_t reads);

  /// Serial sums over one read's wordline voltages, in row order: the
  /// sneak background's sum |v_r|, and the closed forms' sum v_r^2 and
  /// sum v_r^2 * rowsum[r] (rowsum: a tier's cached per-row conductance
  /// sums).
  struct ReadSums {
    double v_abs = 0.0;
    double v_sq = 0.0;
    double e_row = 0.0;
  };
  ReadSums read_sums(std::span<const double> v_rows,
                     const std::vector<double>& rowsum) const;

  /// read_sums of every plane of a vmm_bit_planes request into out[b]
  /// (out.size() == planes).
  void plane_read_sums(std::span<const std::uint32_t> inputs, int planes,
                       double v, const std::vector<double>& rowsum,
                       std::span<ReadSums> out);

  /// Closed-form VMM energy (pJ) from the per-row conductance sums:
  /// sum_r v_r^2 * rowsum[r] * t_read * 1e-3 — exact for tier 0's
  /// per-cell energy formula because conductances are non-negative
  /// (agrees with tier 0 up to reassociation ulps).
  double read_energy(const ReadSums& s) const;

  /// Tier-1 noise scale factor (mean-field over rows): tier-0 column
  /// variance is sum_r (noise_frac * v_r * g_eff[r][c])^2, which the
  /// calibration factorises as (mean_r v_r^2) * sum_r g^2 — exact when
  /// |v_r| is uniform across rows (the bit-sliced DAC encodings the tile
  /// layer feeds are exactly that), within the documented budget
  /// otherwise. Per-column std = scale * g_eff_col_std_[c].
  double calibrated_noise_scale(const ReadSums& s) const;

  /// Tier-1 tail of one read, after its plain current accumulation: sneak
  /// background, calibrated noise keyed by one generator draw, stats and
  /// charge. Returns the energy charged.
  double finish_calibrated_read(const ReadSums& s, std::span<double> currents);

  /// Tier-2 tail of one read: stats and charge. Returns the energy charged.
  double finish_ideal_read(const ReadSums& s);

  /// Shared tier-1/2 current accumulation: currents[c] += v_r * g[r][c]
  /// over the given flat conductance matrix, same element order and
  /// rounding as tier 0's pre-noise accumulation (dispatched axpy rows).
  void accumulate_currents_plain(std::span<const double> v_rows,
                                 const double* g_flat,
                                 std::span<double> currents) const;

  /// Sneak background current per column of a passive 0T1R array, given
  /// the read's sum of |v_r| (from the cached conductance sum; requires a
  /// valid cache).
  double sneak_background_per_col(double v_abs_sum) const;

  CrossbarConfig cfg_;
  device::TechnologyParams tech_;
  util::Rng rng_;
  /// Tier-0 read noise: the key (a stream of the seed) and the reads made
  /// so far, which reset_stats() leaves alone.
  std::uint64_t noise_key_;
  std::uint64_t tier0_reads_ = 0;
  /// Disturb events: the key (another stream of the seed) of the sweeps'
  /// and the tier-0 reads' keyed words, and the sweeps made so far.
  std::uint64_t disturb_key_;
  std::uint64_t sweeps_ = 0;
  std::vector<device::ReRamCell> cells_;
  fault::FaultMap faults_;
  CrossbarStats stats_;
  double last_op_energy_pj_ = 0.0;

  // Device-health observability (see health_monitor()).
  std::shared_ptr<obs::HealthMonitor> health_;
  std::string health_name_;

  // Hot-path caches (see ensure_conductance_cache).
  std::vector<double> g_true_cache_;   ///< stored conductances, flat row-major
  std::vector<double> g_eff_cache_;    ///< IR-drop-attenuated counterparts
  double g_true_sum_ = 0.0;            ///< sum of g_true (sneak background)
  // Fidelity-tier calibration tables, maintained alongside the conductance
  // caches (rebuild + delta repair): target conductances for tier 2, and
  // the per-column / per-row sums tier 1 derives its noise and energy from.
  std::vector<double> g_ideal_cache_;    ///< target conductances, flat
  std::vector<double> g_eff_sq_colsum_;  ///< per-column sum of g_eff^2
  std::vector<double> g_eff_col_std_;    ///< sqrt(g_eff_sq_colsum_), cached
  std::vector<double> g_eff_rowsum_;     ///< per-row sum of g_eff
  std::vector<double> g_ideal_rowsum_;   ///< per-row sum of g_ideal
  bool g_cache_built_ = false;         ///< caches populated at least once
  bool g_all_dirty_ = true;            ///< full rebuild pending
  /// Bumped by every rebuild and delta repair (unlike the CrossbarStats
  /// counters, reset_stats() leaves it alone): what a table derived from
  /// the caches is keyed on.
  std::uint64_t g_cache_gen_ = 0;

  // tier0_row_energy's table and its key: the cache generation, the
  // voltage and the kernel table it was built with (none yet when null).
  std::vector<double> row_energy_;
  std::uint64_t row_energy_gen_ = 0;
  double row_energy_v_ = 0.0;
  const util::simd::KernelTable* row_energy_table_ = nullptr;

  // Dirty tracking (incremental_cache): flat cell indices pending repair,
  // deduplicated by a per-row bitset (dirty_words_per_row() words per row).
  std::vector<std::uint32_t> dirty_cells_;
  std::vector<std::uint64_t> dirty_bits_;

  /// Noise variances of the reads of one reads_full run (one read without
  /// a fan-out), or of every plane of a vmm_bit_planes call (reads or
  /// planes x cols).
  std::vector<double> vmm_noise_scratch_;
  /// Keyed standard normals of one or more tier-0 reads (next_read_normals).
  std::vector<double> noise_z_scratch_;
  std::vector<double> batch_energy_scratch_;  ///< per-sample energy (vmm_batch)
  /// vmm_bit_planes: the rows x 3 terms of plane_read_sums, then one
  /// plane's voltages in the disturb fallback.
  std::vector<double> bit_planes_scratch_;

  // Per row / per column: cells that change a neighbour's write-disturb
  // rate, i.e. stuck (never hit) or with a write-disturb scale other than 1.
  // Recounted by apply_faults, bumped by note_write at a wear-out.
  std::vector<std::uint32_t> sweep_walk_row_;
  std::vector<std::uint32_t> sweep_walk_col_;
};

}  // namespace cim::crossbar
