#include "eda/flow.hpp"

#include <algorithm>

#include "eda/aig.hpp"
#include "eda/bdd.hpp"
#include "eda/esop.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/hazard.hpp"
#include "eda/verify/pass.hpp"
#include "eda/verify/verify.hpp"
#include "obs/obs.hpp"

namespace cim::eda {
namespace {

/// Folds a static-verification report into the flow report.
void absorb_lint(FlowReport& rep, verify::VerifyReport&& lint) {
  rep.lint_errors = lint.errors();
  rep.lint_warnings = lint.warnings();
  rep.lint_clean = lint.clean();
  rep.max_writes_per_cell = lint.max_writes_per_cell;
  rep.lint_diagnostics = std::move(lint.diagnostics);
}

/// Runs the standard static pass pipeline over `unit`, absorbing the
/// aggregated diagnostics plus the wear/cost certificates. When `keep` is
/// non-null the program's access sets (which run_suite schedules across
/// the hazard tile pool) are copied out.
void run_passes(FlowReport& rep, const verify::ProgramUnit& unit,
                verify::ProgramAccess* keep) {
  verify::PassManager pm = verify::PassManager::standard();
  verify::AnalysisResults results;
  absorb_lint(rep, pm.run(unit, results));
  const auto& cost = results.cost(unit);
  rep.static_time_ns = cost.time_ns;
  rep.static_energy_pj_min = cost.energy_pj_min;
  rep.static_energy_pj_exp = cost.energy_pj_exp;
  rep.static_energy_pj_max = cost.energy_pj_max;
  rep.static_cost_exact = cost.exact_expectation;
  const auto& access = results.access(unit);
  rep.static_max_writes_per_cell = access.max_write_bound();
  if (results.wear())
    rep.certified_evaluations = results.wear()->certified_evaluations;
  if (keep != nullptr) *keep = access;
}

/// Assigns the suite's compiled programs round-robin onto a small tile
/// pool with per-tile serialized schedule windows — the dispatch model a
/// CimSystem-style scheduler would produce. A correct mapper output must
/// yield zero findings here (the clean-schedule contract).
struct SuiteScheduleEntry {
  std::string name;
  verify::ProgramAccess access;
  double duration_ns = 0.0;
};

verify::VerifyReport analyze_suite_schedule(
    const std::vector<SuiteScheduleEntry>& entries) {
  constexpr std::size_t kPoolTiles = 4;
  verify::TilePool pool;
  const std::size_t n_tiles = std::min(kPoolTiles, std::max<std::size_t>(
                                                       1, entries.size()));
  verify::TileInfo tile;
  tile.adc_channels = 8;
  for (const auto& e : entries) {
    tile.rows = std::max(tile.rows, e.access.rows);
    tile.cols = std::max(tile.cols, e.access.cols);
  }
  pool.tiles.assign(n_tiles, tile);

  std::vector<verify::ScheduledProgram> sched;
  std::vector<double> tile_clock(n_tiles, 0.0);
  sched.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    verify::ScheduledProgram p;
    p.name = entries[i].name;
    p.tile = i % n_tiles;
    p.access = entries[i].access;
    p.duration = std::max(1.0, entries[i].duration_ns);
    p.start = tile_clock[p.tile];  // serialized per tile
    tile_clock[p.tile] += p.duration;
    sched.push_back(std::move(p));
  }
  return verify::analyze_hazards(pool, sched);
}

FlowReport run_flow_impl(const std::string& name, const Netlist& circuit,
                         LogicFamily family, const FlowOptions& opts,
                         verify::ProgramAccess* keep_access);

}  // namespace

std::string_view logic_family_name(LogicFamily family) {
  switch (family) {
    case LogicFamily::kImply: return "IMPLY";
    case LogicFamily::kMajority: return "Majority";
    case LogicFamily::kMagic: return "MAGIC";
  }
  return "unknown";
}

std::vector<LogicFamily> all_logic_families() {
  return {LogicFamily::kImply, LogicFamily::kMajority, LogicFamily::kMagic};
}

namespace {

FlowReport run_flow_impl(const std::string& name, const Netlist& circuit,
                         LogicFamily family, const FlowOptions& opts,
                         verify::ProgramAccess* keep_access) {
  CIM_OBS_SPAN("eda.flow.run", obs::Component::kDigital);
  if (obs::enabled()) obs::Registry::global().counter("eda.flow.runs").add(1);
  FlowReport rep;
  rep.circuit = name;
  rep.family = family;

  // Phase 1: technology-independent synthesis into an AIG.
  const Aig aig = [&] {
    CIM_OBS_SPAN("eda.flow.synth", obs::Component::kDigital);
    return Aig::from_netlist(circuit);
  }();
  rep.aig_nodes = aig.num_ands();
  rep.aig_depth = aig.depth();

  // Phase 2: technology-dependent representations.
  const Mig mig = Mig::from_aig(aig);
  rep.mig_nodes = mig.num_majs();
  rep.mig_depth = mig.depth();

  if (circuit.num_outputs() == 1 && circuit.num_inputs() <= 12) {
    const auto tt = circuit.truth_tables().front();
    rep.esop_cubes = Esop::from_truth_table(tt).cube_count();
    BddManager bdd(tt.vars());
    rep.bdd_nodes = bdd.size(bdd.from_truth_table(tt));
  }

  // Phase 3: technology mapping, then the static pass pipeline over the
  // mapped micro-op program (family linter + wear/cost certification).
  CIM_OBS_SPAN("eda.flow.map", obs::Component::kDigital);
  verify::ProgramUnit unit;
  unit.name = name + "/" + std::string(logic_family_name(family));
  unit.planned_evaluations = opts.planned_evaluations;
  unit.cost_budget = opts.cost_budget;
  switch (family) {
    case LogicFamily::kImply: {
      const auto prog = compile_imply(aig, opts.reuse_cells);
      rep.devices = prog.num_cells;
      rep.delay = prog.delay();
      if (opts.verify) rep.verified = verify_imply(prog, aig);
      if (opts.lint) {
        unit.imply = &prog;
        unit.aig = &aig;
        run_passes(rep, unit, keep_access);
      }
      break;
    }
    case LogicFamily::kMajority: {
      const auto sched = schedule_revamp(mig);
      rep.devices = sched.device_count;
      rep.delay = sched.delay();
      // Verify and lint the one program the hardware runs.
      const auto prog = assemble_revamp(mig, sched);
      if (opts.verify) rep.verified = verify_revamp(prog, mig);
      if (opts.lint) {
        unit.revamp = &prog;
        run_passes(rep, unit, keep_access);
      }
      break;
    }
    case LogicFamily::kMagic: {
      const auto nor = aig.to_netlist().to_nor_only();
      const auto prog = compile_magic(nor, opts.reuse_cells);
      rep.devices = prog.num_cells;
      rep.delay = prog.delay();
      if (opts.verify) rep.verified = verify_magic(prog, nor);
      if (opts.lint) {
        unit.magic = &prog;
        unit.netlist = &nor;
        run_passes(rep, unit, keep_access);
      }
      break;
    }
  }
  rep.area_delay_product =
      static_cast<double>(rep.devices) * static_cast<double>(rep.delay);
  return rep;
}

}  // namespace

FlowReport run_flow(const std::string& name, const Netlist& circuit,
                    LogicFamily family, const FlowOptions& opts) {
  return run_flow_impl(name, circuit, family, opts, nullptr);
}

std::vector<FlowReport> run_suite(const std::vector<BenchmarkCircuit>& suite,
                                  const FlowOptions& opts) {
  std::vector<FlowReport> reports;
  reports.reserve(suite.size() * 3);
  std::vector<SuiteScheduleEntry> entries;
  entries.reserve(suite.size() * 3);
  for (const auto& bc : suite) {
    for (const auto family : all_logic_families()) {
      SuiteScheduleEntry entry;
      reports.push_back(run_flow_impl(bc.name, bc.netlist, family, opts,
                                      opts.lint ? &entry.access : nullptr));
      if (!opts.lint) continue;
      entry.name = reports.back().circuit + "/" +
                   std::string(logic_family_name(family));
      entry.duration_ns = reports.back().static_time_ns;
      entries.push_back(std::move(entry));
    }
  }
  if (entries.empty()) return reports;

  // Cross-tile hazard gate: dispatch the whole suite across a shared tile
  // pool and attribute any findings back to the originating report.
  auto hazards = analyze_suite_schedule(entries);
  for (auto& rep : reports) {
    const std::string tag =
        "'" + rep.circuit + "/" + std::string(logic_family_name(rep.family)) +
        "'";
    for (auto& d : hazards.diagnostics) {
      if (d.message.find(tag) == std::string::npos) continue;
      rep.hazard_clean = rep.hazard_clean &&
                         d.severity != verify::Severity::kError;
      ++rep.hazard_findings;
      rep.lint_diagnostics.push_back(d);
      if (d.severity == verify::Severity::kError) {
        ++rep.lint_errors;
        rep.lint_clean = false;
      } else {
        ++rep.lint_warnings;
      }
    }
  }
  return reports;
}

util::Table lint_summary(const std::vector<FlowReport>& reports) {
  std::vector<verify::LintEntry> entries;
  entries.reserve(reports.size());
  for (const auto& r : reports) {
    verify::VerifyReport vr;
    vr.diagnostics = r.lint_diagnostics;
    vr.max_writes_per_cell = r.max_writes_per_cell;
    entries.push_back(
        {r.circuit, std::string(logic_family_name(r.family)), std::move(vr)});
  }
  return verify::lint_table(entries);
}

}  // namespace cim::eda
