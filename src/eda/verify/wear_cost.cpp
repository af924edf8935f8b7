#include "eda/verify/wear_cost.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>
#include <sstream>

#include "eda/bit_slice.hpp"
#include "obs/health.hpp"

namespace cim::eda::verify {
namespace {

// --- cost accumulator mirroring Crossbar::charge -----------------------------

struct CostAcc {
  const device::TechnologyParams& tech;
  CostEstimate est;

  explicit CostAcc(const device::TechnologyParams& t) : tech(t) {}

  /// Unconditional programming pulse: write_bit / set_false / MAGIC SET.
  void write() {
    est.time_ns += tech.t_write_ns;
    est.energy_pj_min += tech.e_write_pj;
    est.energy_pj_max += tech.e_write_pj;
    est.energy_pj_exp += tech.e_write_pj;
    ++est.write_slots;
  }

  /// Conditional logic op: fires with probability `p_fire`, else costs the
  /// 0.1 * e_write no-fire pulse window.
  void conditional(double p_fire) {
    est.time_ns += tech.t_write_ns;
    est.energy_pj_min += 0.1 * tech.e_write_pj;
    est.energy_pj_max += tech.e_write_pj;
    est.energy_pj_exp +=
        p_fire * tech.e_write_pj + (1.0 - p_fire) * 0.1 * tech.e_write_pj;
    ++est.write_slots;
    ++est.conditional_ops;
  }

  /// Charged read_bit of a cell holding 1 with probability `p1`.
  void sensed_read(double p1) {
    auto e = [&](double g_us) {
      return tech.v_read * tech.v_read * g_us * tech.t_read_ns * 1e-3 +
             tech.e_read_pj;
    };
    est.time_ns += tech.t_read_ns;
    est.energy_pj_min += e(tech.g_off_us());
    est.energy_pj_max += e(tech.g_on_us());
    est.energy_pj_exp +=
        e(p1 * tech.g_on_us() + (1.0 - p1) * tech.g_off_us());
    ++est.sensed_reads;
  }
};

// --- value domains -----------------------------------------------------------
//
// A cell's value is words() lanes of type V. A walker charges each micro-op
// once, in program order, with p(lane) = P(value = 1); p calls lane(k) once
// per lane, in order, so the callback also steps the cell lane by lane.

/// Exact domain: one uint64_t per cell per block of 64 assignments; a
/// probability is the popcount over every block, divided by 2^vars.
class WordDomain {
 public:
  using V = std::uint64_t;
  explicit WordDomain(std::size_t vars) : vars_(vars) {}
  std::size_t words() const { return detail::table_words(vars_); }
  V constant(bool b) const { return b ? ~0ULL : 0; }
  V input(std::size_t i, std::size_t k) const { return detail::var_word(i, k); }
  static V not_(V a) { return ~a; }
  static V or_(V a, V b) { return a | b; }
  static V and_(V a, V b) { return a & b; }
  static V maj(V a, V b, V c) { return (a & b) | (a & c) | (b & c); }
  template <typename Lane>
  double p(Lane&& lane) const {
    // Below 6 variables only the low 2^vars lanes are assignments.
    const V valid = vars_ < 6 ? (1ULL << (1ULL << vars_)) - 1 : ~0ULL;
    std::uint64_t ones = 0;
    for (std::size_t k = 0; k < words(); ++k)
      ones += static_cast<std::uint64_t>(std::popcount(lane(k) & valid));
    return static_cast<double>(ones) /
           static_cast<double>(std::uint64_t{1} << vars_);
  }

 private:
  std::size_t vars_;
};

/// Approximate domain for wide programs: per-cell P(cell = 1) under an
/// independence assumption, in one lane.
class ProbDomain {
 public:
  using V = double;
  explicit ProbDomain(std::size_t) {}
  std::size_t words() const { return 1; }
  V constant(bool b) const { return b ? 1.0 : 0.0; }
  V input(std::size_t, std::size_t) const { return 0.5; }
  static V not_(V a) { return 1.0 - a; }
  static V or_(V a, V b) { return 1.0 - (1.0 - a) * (1.0 - b); }
  static V and_(V a, V b) { return a * b; }
  static V maj(V a, V b, V c) { return a * b + a * c + b * c - 2 * a * b * c; }
  template <typename Lane>
  double p(Lane&& lane) const { return lane(0); }
};

// --- per-family walkers ------------------------------------------------------

template <typename D>
CostEstimate cost_imply(const ImplyProgram& prog,
                        const device::TechnologyParams& tech) {
  using V = typename D::V;
  D dom(prog.num_inputs);
  const std::size_t n = prog.num_cells;
  const std::size_t L = dom.words();
  std::vector<V> val(n * L, dom.constant(false));
  CostAcc acc(tech);
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n); ++i) {
    for (std::size_t k = 0; k < L; ++k) val[i * L + k] = dom.input(i, k);
    acc.write();  // executor launch: write_bit per input
  }
  for (const auto& ins : prog.instrs) {
    if (ins.kind == ImplyInstr::Kind::kFalse) {
      acc.write();
      if (ins.dest < n)
        std::fill_n(&val[ins.dest * L], L, dom.constant(false));
      continue;
    }
    if (ins.dest >= n || ins.src >= n) {  // oob: the linters report it;
      acc.conditional(0.5);               // keep the pulse-window cost
      continue;
    }
    // dest' = dest -> src; switches unless dest = src = 1.
    V* dest = &val[ins.dest * L];
    const V* src = &val[ins.src * L];
    acc.conditional(dom.p([&](std::size_t k) {
      const V d = dest[k];
      const V s = src[k];
      dest[k] = D::or_(D::not_(d), s);
      return D::not_(D::and_(d, s));
    }));
  }
  for (const auto c : prog.output_cells)
    acc.sensed_read(
        c < n ? dom.p([&](std::size_t k) { return val[c * L + k]; }) : 0.0);
  return acc.est;
}

template <typename D>
CostEstimate cost_magic(const MagicProgram& prog,
                        const device::TechnologyParams& tech) {
  using V = typename D::V;
  D dom(prog.num_inputs);
  const std::size_t n = prog.num_cells;
  const std::size_t L = dom.words();
  std::vector<V> val(n * L, dom.constant(false));
  CostAcc acc(tech);
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n); ++i) {
    for (std::size_t k = 0; k < L; ++k) val[i * L + k] = dom.input(i, k);
    acc.write();
  }
  for (const auto& ins : prog.instrs) {
    if (ins.kind == MagicInstr::Kind::kSet) {
      acc.write();
      if (ins.out_cell < n)
        std::fill_n(&val[ins.out_cell * L], L, dom.constant(true));
      continue;
    }
    // NOR conditionally RESETs: fires iff any input holds 1.
    acc.conditional(dom.p([&](std::size_t k) {
      auto any = dom.constant(false);
      for (const auto c : ins.in_cells)
        if (c < n) any = D::or_(any, val[c * L + k]);
      if (ins.out_cell < n) val[ins.out_cell * L + k] = D::not_(any);
      return any;
    }));
  }
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    if (k < prog.output_is_const.size() && prog.output_is_const[k]) continue;
    const std::size_t c = prog.output_cells[k];
    acc.sensed_read(
        c < n ? dom.p([&](std::size_t j) { return val[c * L + j]; }) : 0.0);
  }
  return acc.est;
}

template <typename D>
CostEstimate cost_revamp(const RevampProgram& prog,
                         const device::TechnologyParams& tech) {
  using V = typename D::V;
  D dom(prog.num_inputs);
  const std::size_t W = prog.wordlines;
  const std::size_t B = prog.bitlines;
  const std::size_t L = dom.words();
  std::vector<V> val(W * B * L, dom.constant(false));
  std::vector<V> dmr(val.size());
  std::vector<bool> latched(W, false);
  std::vector<V> wl(L);
  CostAcc acc(tech);

  auto resolve = [&](const RevampOperand& op, std::size_t k) -> V {
    V v = dom.constant(false);
    switch (op.src) {
      case RevampOperand::Src::kConst0: v = dom.constant(false); break;
      case RevampOperand::Src::kConst1: v = dom.constant(true); break;
      case RevampOperand::Src::kInput:
        v = op.input_index < prog.num_inputs ? dom.input(op.input_index, k)
                                             : dom.constant(false);
        break;
      case RevampOperand::Src::kDmr:
        if (op.dmr_row < W && latched[op.dmr_row] && op.dmr_col < B)
          v = dmr[(op.dmr_row * B + op.dmr_col) * L + k];
        break;
    }
    return op.complemented ? D::not_(v) : v;
  };

  for (const auto& ins : prog.instrs) {
    if (ins.wordline >= W) continue;  // oob: the linter reports it
    V* row = val.data() + ins.wordline * B * L;
    if (ins.kind == RevampInstruction::Kind::kRead) {
      for (std::size_t c = 0; c < B; ++c)
        acc.sensed_read(dom.p([&](std::size_t k) { return row[c * L + k]; }));
      std::copy_n(row, B * L, dmr.data() + ins.wordline * B * L);
      latched[ins.wordline] = true;
      continue;
    }
    for (std::size_t k = 0; k < L; ++k) wl[k] = resolve(ins.wl, k);
    for (std::size_t c = 0; c < std::min(ins.columns.size(), B); ++c) {
      if (!ins.columns[c]) continue;
      V* cell = &row[c * L];
      acc.conditional(dom.p([&](std::size_t k) {
        const V w = wl[k];
        const V b = resolve(*ins.columns[c], k);  // v_bl; the cell sees !v_bl
        const V s = cell[k];
        const V nb = D::not_(b);
        cell[k] = D::maj(s, w, nb);
        // NS = MAJ3(S, w, !b) switches iff w == !b and w != S: disjoint
        // cases (w=1, b=0, S=0) and (w=0, b=1, S=1).
        return D::or_(D::and_(D::and_(w, nb), D::not_(s)),
                      D::and_(D::and_(D::not_(w), b), s));
      }));
    }
  }
  // Output taps resolve from DMR/PIR/constants — nothing charged.
  return acc.est;
}

template <typename WalkFn, typename ProbWalkFn>
CostEstimate dispatch(std::size_t num_inputs, WalkFn&& exact,
                      ProbWalkFn&& approx) {
  if (num_inputs <= kExactCostInputCap) {
    auto est = exact();
    est.exact_expectation = true;
    return est;
  }
  return approx();
}

}  // namespace

CostEstimate estimate_cost(const ImplyProgram& prog,
                           const device::TechnologyParams& tech) {
  return dispatch(
      prog.num_inputs, [&] { return cost_imply<WordDomain>(prog, tech); },
      [&] { return cost_imply<ProbDomain>(prog, tech); });
}

CostEstimate estimate_cost(const MagicProgram& prog,
                           const device::TechnologyParams& tech) {
  return dispatch(
      prog.num_inputs, [&] { return cost_magic<WordDomain>(prog, tech); },
      [&] { return cost_magic<ProbDomain>(prog, tech); });
}

CostEstimate estimate_cost(const RevampProgram& prog,
                           const device::TechnologyParams& tech) {
  return dispatch(
      prog.num_inputs, [&] { return cost_revamp<WordDomain>(prog, tech); },
      [&] { return cost_revamp<ProbDomain>(prog, tech); });
}

void certify_cost(const CostEstimate& cost, const CostBudget& budget,
                  VerifyReport& rep) {
  if (budget.time_ns > 0.0 && cost.time_ns > budget.time_ns) {
    std::ostringstream os;
    os << "static latency " << cost.time_ns << " ns exceeds the budget of "
       << budget.time_ns << " ns";
    rep.diagnostics.push_back(
        {Severity::kError, Rule::kCostBudget, kNoInstr, kNoCell, os.str()});
  }
  if (budget.energy_pj > 0.0 && cost.energy_pj_max > budget.energy_pj) {
    std::ostringstream os;
    os << "static worst-case energy " << cost.energy_pj_max
       << " pJ exceeds the budget of " << budget.energy_pj << " pJ";
    rep.diagnostics.push_back(
        {Severity::kError, Rule::kCostBudget, kNoInstr, kNoCell, os.str()});
  }
}

WearCertificate certify_wear(const ProgramAccess& access,
                             const VerifyOptions& opts,
                             std::uint64_t planned_evaluations,
                             VerifyReport& rep) {
  WearCertificate cert;
  cert.max_writes_per_run = access.max_write_bound();
  cert.total_writes_per_run = access.total_writes;
  cert.endurance_mean = device::technology_params(opts.tech).endurance_mean;
  cert.certified_evaluations =
      cert.max_writes_per_run == 0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(
                cert.endurance_mean /
                static_cast<double>(cert.max_writes_per_run));
  if (planned_evaluations == 0) return cert;

  constexpr std::size_t kMaxPerCellDiags = 4;
  std::size_t offending = 0;
  for (std::size_t cell = 0; cell < access.write_bound.size(); ++cell) {
    const double lifetime = static_cast<double>(access.write_bound[cell]) *
                            static_cast<double>(planned_evaluations);
    if (lifetime <= cert.endurance_mean) continue;
    if (++offending <= kMaxPerCellDiags) {
      std::ostringstream os;
      os << "cell r" << cell / access.cols << ",c" << cell % access.cols
         << ": " << access.write_bound[cell] << " writes/run x "
         << planned_evaluations << " planned runs = " << lifetime
         << " exceeds the mean endurance of " << cert.endurance_mean;
      rep.diagnostics.push_back(
          {Severity::kError, Rule::kWearBudget, kNoInstr, cell, os.str()});
    }
  }
  if (offending > kMaxPerCellDiags) {
    std::ostringstream os;
    os << (offending - kMaxPerCellDiags)
       << " further cells exceed the endurance budget (suppressed)";
    rep.diagnostics.push_back(
        {Severity::kError, Rule::kWearBudget, kNoInstr, kNoCell, os.str()});
  }
  return cert;
}

// --- cim-health-heatmap-v1 export --------------------------------------------

void write_static_wear_json(std::ostream& os,
                            const std::vector<StaticWearEntry>& entries) {
  // Disturbs, drift, wear-out and sneak currents are runtime phenomena —
  // the static certificate has no statement about them, so they stay 0.
  std::vector<obs::HealthMonitor::Snapshot> arrays;
  for (const auto& e : entries) {
    if (e.access == nullptr) continue;
    const auto& a = *e.access;
    obs::HealthMonitor::Snapshot s;
    s.name = e.name;
    s.rows = a.rows;
    s.cols = a.cols;
    s.wear.assign(a.write_bound.begin(), a.write_bound.end());
    s.disturbs.assign(a.write_bound.size(), 0);
    s.drift_us.assign(a.write_bound.size(), 0.0);
    s.worn.assign(a.write_bound.size(), 0);
    s.adc_samples.assign(a.sensed_cols.begin(), a.sensed_cols.end());
    s.adc_clips.assign(a.cols, 0);
    s.sneak_ua.assign(a.cols, 0.0);
    s.total_writes = a.total_writes;
    s.max_wear = a.max_write_bound();
    for (const auto n : a.sensed_cols) s.total_adc_samples += n;
    arrays.push_back(std::move(s));
  }
  obs::write_health_json(os, arrays);
}

}  // namespace cim::eda::verify
