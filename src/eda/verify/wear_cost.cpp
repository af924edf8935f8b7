#include "eda/verify/wear_cost.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "eda/bit_slice.hpp"
#include "obs/health.hpp"

namespace cim::eda::verify {
namespace {

// --- cost accumulator mirroring Crossbar::charge -----------------------------
//
// Every charge names the cell it charges. With `access` set, the walk also
// records that cell in the program's access sets (access.hpp).

struct CostAcc {
  const device::TechnologyParams& tech;
  ProgramAccess* access;  ///< null unless the caller keeps the access sets
  CostEstimate est;

  CostAcc(const device::TechnologyParams& t, ProgramAccess* a,
          std::size_t rows, std::size_t cols)
      : tech(t), access(a) {
    if (access != nullptr) *access = ProgramAccess::footprint(rows, cols);
  }

  /// Unconditional programming pulse on `cell`: write_bit / set_false /
  /// MAGIC SET.
  void write(std::size_t cell) {
    est.time_ns += tech.t_write_ns;
    est.energy_pj_min += tech.e_write_pj;
    est.energy_pj_max += tech.e_write_pj;
    est.energy_pj_exp += tech.e_write_pj;
    ++est.write_slots;
    if (access != nullptr) access->bump_write(cell);
  }

  /// Conditional logic op on `cell`: fires with probability `p_fire`, else
  /// costs the 0.1 * e_write no-fire pulse window.
  void conditional(std::size_t cell, double p_fire) {
    est.time_ns += tech.t_write_ns;
    est.energy_pj_min += 0.1 * tech.e_write_pj;
    est.energy_pj_max += tech.e_write_pj;
    est.energy_pj_exp +=
        p_fire * tech.e_write_pj + (1.0 - p_fire) * 0.1 * tech.e_write_pj;
    ++est.write_slots;
    ++est.conditional_ops;
    if (access != nullptr) access->bump_write(cell);
  }

  /// Charged read_bit of `cell`, which holds 1 with probability `p1`.
  void sensed_read(std::size_t cell, double p1) {
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
    if (access != nullptr) access->sense(cell);
  }

  /// Internal operand reads: uncharged, but data dependences.
  template <typename Cells>
  void operand_reads(const Cells& cells) {
    if (access != nullptr)
      for (const auto c : cells) access->mark_read(c);
  }

  /// The wordline driver of `row` is engaged.
  void drive(std::size_t row) {
    if (access != nullptr) access->driven_rows[row] = 1;
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
  /// Below 6 variables only the low 2^vars lanes are assignments.
  V lanes() const { return vars_ < 6 ? (1ULL << (1ULL << vars_)) - 1 : ~0ULL; }
  template <typename Lane>
  double p(Lane&& lane) const {
    const V valid = lanes();
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
//
// Each walk is its family's one interpreter: a fresh row (every cell RESET),
// the inputs launched, then every micro-op on all of a cell's lanes. With
// `access` set it records the access sets as it charges; with `outs` set it
// appends each output's lanes after the program ran, which `check_program`
// compares with the source's truth tables. Only a well-formed program
// (`well_formed` below) is walked with `outs` set.

template <typename D>
CostEstimate walk(const ImplyProgram& prog,
                  const device::TechnologyParams& tech, ProgramAccess* access,
                  std::vector<typename D::V>* outs = nullptr) {
  using V = typename D::V;
  D dom(prog.num_inputs);
  const std::size_t n = prog.num_cells;
  const std::size_t L = dom.words();
  std::vector<V> val(n * L, dom.constant(false));
  CostAcc acc(tech, access, 1, n);
  if (n > 0) acc.drive(0);
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n); ++i) {
    for (std::size_t k = 0; k < L; ++k) val[i * L + k] = dom.input(i, k);
    acc.write(i);  // executor launch: write_bit per input
  }
  for (const auto& ins : prog.instrs) {
    if (ins.kind == ImplyInstr::Kind::kFalse) {
      acc.write(ins.dest);
      if (ins.dest < n)
        std::fill_n(&val[ins.dest * L], L, dom.constant(false));
      continue;
    }
    acc.operand_reads(std::array{ins.src, ins.dest});
    if (ins.dest >= n || ins.src >= n) {  // oob: the linters report it;
      acc.conditional(ins.dest, 0.5);     // keep the pulse-window cost
      continue;
    }
    // dest' = dest -> src; switches unless dest = src = 1.
    V* dest = &val[ins.dest * L];
    const V* src = &val[ins.src * L];
    acc.conditional(ins.dest, dom.p([&](std::size_t k) {
      const V d = dest[k];
      const V s = src[k];
      dest[k] = D::or_(D::not_(d), s);
      return D::not_(D::and_(d, s));
    }));
  }
  for (const auto c : prog.output_cells)
    acc.sensed_read(
        c, c < n ? dom.p([&](std::size_t k) { return val[c * L + k]; }) : 0.0);
  if (outs != nullptr)
    for (const auto c : prog.output_cells)
      outs->insert(outs->end(), &val[c * L], &val[c * L] + L);
  return acc.est;
}

template <typename D>
CostEstimate walk(const MagicProgram& prog,
                  const device::TechnologyParams& tech, ProgramAccess* access,
                  std::vector<typename D::V>* outs = nullptr) {
  using V = typename D::V;
  D dom(prog.num_inputs);
  const std::size_t n = prog.num_cells;
  const std::size_t L = dom.words();
  std::vector<V> val(n * L, dom.constant(false));
  CostAcc acc(tech, access, 1, n);
  if (n > 0) acc.drive(0);
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n); ++i) {
    for (std::size_t k = 0; k < L; ++k) val[i * L + k] = dom.input(i, k);
    acc.write(i);
  }
  for (const auto& ins : prog.instrs) {
    if (ins.kind == MagicInstr::Kind::kSet) {
      acc.write(ins.out_cell);
      if (ins.out_cell < n)
        std::fill_n(&val[ins.out_cell * L], L, dom.constant(true));
      continue;
    }
    // NOR conditionally RESETs the output where any input holds 1 (the
    // executor's out & !any); the pulse fires iff any input holds 1.
    acc.operand_reads(ins.in_cells);
    acc.conditional(ins.out_cell, dom.p([&](std::size_t k) {
      auto any = dom.constant(false);
      for (const auto c : ins.in_cells)
        if (c < n) any = D::or_(any, val[c * L + k]);
      if (ins.out_cell < n) {
        V& out = val[ins.out_cell * L + k];
        out = D::and_(out, D::not_(any));
      }
      return any;
    }));
  }
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    if (k < prog.output_is_const.size() && prog.output_is_const[k]) continue;
    const std::size_t c = prog.output_cells[k];
    acc.sensed_read(
        c, c < n ? dom.p([&](std::size_t j) { return val[c * L + j]; }) : 0.0);
  }
  if (outs != nullptr)
    for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
      if (prog.output_is_const[k])
        outs->insert(outs->end(), L, dom.constant(prog.const_values[k]));
      else
        outs->insert(outs->end(), &val[prog.output_cells[k] * L],
                     &val[prog.output_cells[k] * L] + L);
    }
  return acc.est;
}

template <typename D>
CostEstimate walk(const RevampProgram& prog,
                  const device::TechnologyParams& tech, ProgramAccess* access,
                  std::vector<typename D::V>* outs = nullptr) {
  using V = typename D::V;
  D dom(prog.num_inputs);
  const std::size_t W = prog.wordlines;
  const std::size_t B = prog.bitlines;
  const std::size_t L = dom.words();
  std::vector<V> val(W * B * L, dom.constant(false));
  std::vector<V> dmr(val.size());
  std::vector<bool> latched(W, false);
  std::vector<V> wl(L);
  CostAcc acc(tech, access, W, B);

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
    acc.drive(ins.wordline);
    V* row = val.data() + ins.wordline * B * L;
    if (ins.kind == RevampInstruction::Kind::kRead) {
      // READ latches the whole row into the DMR: B sensed read_bit calls.
      for (std::size_t c = 0; c < B; ++c)
        acc.sensed_read(ins.wordline * B + c,
                        dom.p([&](std::size_t k) { return row[c * L + k]; }));
      std::copy_n(row, B * L, dmr.data() + ins.wordline * B * L);
      latched[ins.wordline] = true;
      continue;
    }
    for (std::size_t k = 0; k < L; ++k) wl[k] = resolve(ins.wl, k);
    for (std::size_t c = 0; c < std::min(ins.columns.size(), B); ++c) {
      if (!ins.columns[c]) continue;
      V* cell = &row[c * L];
      acc.conditional(ins.wordline * B + c, dom.p([&](std::size_t k) {
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
  if (outs != nullptr)
    for (const auto& op : prog.outputs)
      for (std::size_t k = 0; k < L; ++k) outs->push_back(resolve(op, k));
  return acc.est;
}

/// The exact walk up to kExactCostInputCap inputs, the approximate one past;
/// it fills `access` when that is set. With `outs` set the exact walk's
/// output words are appended too: past the cap they take an exact walk of
/// their own.
template <typename Prog>
CostEstimate estimate(const Prog& prog, const device::TechnologyParams& tech,
                      ProgramAccess* access = nullptr,
                      std::vector<std::uint64_t>* outs = nullptr) {
  if (prog.num_inputs <= kExactCostInputCap) {
    auto est = walk<WordDomain>(prog, tech, access, outs);
    est.exact_expectation = true;
    return est;
  }
  if (outs != nullptr) walk<WordDomain>(prog, tech, nullptr, outs);
  return walk<ProbDomain>(prog, tech, access);
}

/// The access sets alone: the one-lane walk, its cost dropped.
template <typename Prog>
ProgramAccess access_walk(const Prog& prog) {
  ProgramAccess a;
  walk<ProbDomain>(prog, device::TechnologyParams{}, &a);
  return a;
}

// --- structural checks -------------------------------------------------------
//
// Whether the executor could run `prog` for a source of `inputs` inputs and
// `outputs` outputs. A malformed program is never verified (it is wrong,
// never undefined), and no walk with output words runs on it.

bool well_formed(const ImplyProgram& prog, std::size_t inputs,
                 std::size_t outputs) {
  const auto in_row = [&prog](std::size_t c) { return c < prog.num_cells; };
  if (prog.num_inputs != inputs || prog.num_inputs > prog.num_cells ||
      prog.output_cells.size() != outputs)
    return false;
  for (const auto& ins : prog.instrs)
    if (!in_row(ins.dest) ||
        (ins.kind == ImplyInstr::Kind::kImply && !in_row(ins.src)))
      return false;
  return std::all_of(prog.output_cells.begin(), prog.output_cells.end(),
                     in_row);
}

bool well_formed(const MagicProgram& prog, std::size_t inputs,
                 std::size_t outputs) {
  const auto in_row = [&prog](std::size_t c) { return c < prog.num_cells; };
  if (prog.num_inputs != inputs || prog.num_inputs > prog.num_cells ||
      prog.output_cells.size() != outputs ||
      prog.output_is_const.size() != outputs ||
      prog.const_values.size() != outputs)
    return false;
  for (const auto& ins : prog.instrs) {
    if (!in_row(ins.out_cell)) return false;
    if (ins.kind != MagicInstr::Kind::kNor) continue;
    if (ins.in_cells.empty() ||
        !std::all_of(ins.in_cells.begin(), ins.in_cells.end(), in_row))
      return false;
  }
  for (std::size_t k = 0; k < outputs; ++k)
    if (!prog.output_is_const[k] && !in_row(prog.output_cells[k])) return false;
  return true;
}

bool well_formed(const RevampProgram& prog, std::size_t inputs,
                 std::size_t outputs) {
  if (prog.num_inputs != inputs || prog.outputs.size() != outputs)
    return false;
  // Every DMR operand's row must be latched by an earlier READ (in program
  // order, so it holds for every assignment).
  std::vector<bool> latched(prog.wordlines, false);
  const auto valid = [&](const RevampOperand& op) {
    if (op.src == RevampOperand::Src::kInput)
      return op.input_index < prog.num_inputs;
    if (op.src == RevampOperand::Src::kDmr)
      return op.dmr_row < prog.wordlines && op.dmr_col < prog.bitlines &&
             latched[op.dmr_row];
    return true;
  };
  for (const auto& ins : prog.instrs) {
    if (ins.wordline >= prog.wordlines) return false;
    if (ins.kind == RevampInstruction::Kind::kRead) {
      latched[ins.wordline] = true;
      continue;
    }
    if (!valid(ins.wl) || ins.columns.size() > prog.bitlines) return false;
    for (const auto& col : ins.columns)
      if (col && !valid(*col)) return false;
  }
  return std::all_of(prog.outputs.begin(), prog.outputs.end(), valid);
}

/// True iff the output `words` of an exact walk over `vars` inputs equal the
/// `spec` tables on every assignment.
bool outputs_match(const std::vector<std::uint64_t>& words,
                   const std::vector<TruthTable>& spec, std::size_t vars) {
  const WordDomain dom(vars);
  const std::size_t L = dom.words();
  for (std::size_t o = 0; o < spec.size(); ++o)
    for (std::size_t k = 0; k < L; ++k)
      if (((words[o * L + k] ^ spec[o].word(k)) & dom.lanes()) != 0)
        return false;
  return true;
}

/// Every check of `prog` in order: the structural checks when the program
/// is to match `source`, the linter (`lint()` returns its report), one walk
/// that yields the access sets, the cost and the output words `verified` is
/// read from, then both certificates, their diagnostics appended to the
/// linter's.
template <typename Prog, typename Source, typename Lint>
ProgramCheck certify(const Prog& prog, const Source* source,
                     const CheckOptions& opts, Lint&& lint) {
  if (opts.match_source && source == nullptr)
    throw std::invalid_argument(
        "check_program: match_source needs the source IR");
  const bool compare =
      opts.match_source &&
      well_formed(prog, source->num_inputs(), source->outputs().size());
  ProgramCheck chk{lint(), {}, {}, {}, false};
  std::vector<std::uint64_t> words;
  chk.cost = estimate(prog, device::technology_params(opts.verify.tech),
                      &chk.access, compare ? &words : nullptr);
  chk.verified = compare && outputs_match(words, source->truth_tables(),
                                          prog.num_inputs);
  VerifyReport& rep = chk.report;
  chk.wear =
      certify_wear(chk.access, opts.verify, opts.planned_evaluations, rep);
  rep.max_writes_per_cell = chk.wear.max_writes_per_run;
  certify_cost(chk.cost, opts.cost_budget, rep);
  return chk;
}

}  // namespace

ProgramAccess ProgramAccess::footprint(std::size_t rows, std::size_t cols) {
  ProgramAccess a;
  a.rows = rows;
  a.cols = cols;
  a.write_bound.assign(rows * cols, 0);
  a.read.assign(rows * cols, 0);
  a.written.assign(rows * cols, 0);
  a.sensed_cols.assign(cols, 0);
  a.driven_rows.assign(rows, 0);
  return a;
}

void ProgramAccess::bump_write(std::size_t cell) {
  if (cell >= write_bound.size()) return;  // oob caught by the linters
  ++write_bound[cell];
  written[cell] = 1;
  ++total_writes;
}

void ProgramAccess::mark_read(std::size_t cell) {
  if (cell < read.size()) read[cell] = 1;
}

void ProgramAccess::sense(std::size_t cell) {
  mark_read(cell);
  if (cols != 0 && cell < read.size()) ++sensed_cols[cell % cols];
  ++sensed_reads;
}

std::size_t ProgramAccess::max_write_bound() const {
  std::uint32_t m = 0;
  for (const auto w : write_bound) m = std::max(m, w);
  return m;
}

ProgramAccess access_of(const ImplyProgram& prog) { return access_walk(prog); }

ProgramAccess access_of(const MagicProgram& prog) { return access_walk(prog); }

ProgramAccess access_of(const RevampProgram& prog) {
  return access_walk(prog);
}

ProgramCheck check_program(const ImplyProgram& prog, const Aig* source,
                           const CheckOptions& opts) {
  return certify(prog, source, opts,
                 [&] { return lint_imply(prog, source, opts.verify); });
}

ProgramCheck check_program(const MagicProgram& prog, const Netlist* source,
                           const CheckOptions& opts) {
  return certify(prog, source, opts,
                 [&] { return lint_magic(prog, source, opts.verify); });
}

ProgramCheck check_program(const RevampProgram& prog, const Mig* source,
                           const CheckOptions& opts) {
  return certify(prog, source, opts,
                 [&] { return lint_revamp(prog, opts.verify); });
}

CostEstimate estimate_cost(const ImplyProgram& prog,
                           const device::TechnologyParams& tech) {
  return estimate(prog, tech);
}

CostEstimate estimate_cost(const MagicProgram& prog,
                           const device::TechnologyParams& tech) {
  return estimate(prog, tech);
}

CostEstimate estimate_cost(const RevampProgram& prog,
                           const device::TechnologyParams& tech) {
  return estimate(prog, tech);
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
