/// \file wear_cost.hpp
/// \brief Static wear & cost certification of compiled micro-op programs
///        (`cim::eda::verify`).
///
/// Two certificates, both derived without touching a crossbar:
///
/// **Wear.** `certify_wear` turns a `ProgramAccess` write-bound map into a
/// per-cell lifetime statement against the `device::Technology` endurance:
/// the bound counts every programming pulse the executor can issue
/// (input-launch writes, unconditional SET/FALSE writes, and every
/// conditional logic op as if it fired), so it dominates the runtime
/// `obs::HealthMonitor` wear counters for any input data — provided writes
/// are non-verified (`CrossbarConfig::verified_writes == false`; verified
/// writes retry a stochastic number of pulses no static bound can cap).
/// The certificate reports how many program evaluations the device
/// endurance sustains, and `write_static_wear_json` exports the spatial
/// bound map in the `cim-health-heatmap-v1` schema so the existing heatmap
/// tooling renders predicted and observed wear side by side.
///
/// **Cost.** `estimate_cost` statically predicts the simulated time and
/// energy one program execution charges through `Crossbar::charge`,
/// mirroring the cost model exactly:
///
///  - every write slot (launch `write_bit`, FALSE/SET, conditional logic
///    op) occupies `t_write_ns`; a fired write costs `e_write_pj`, an
///    unfired conditional op 0.1 * `e_write_pj`;
///  - every sensed read costs `t_read_ns` and
///    `v_read^2 * g * t_read_ns * 1e-3 + e_read_pj` with the cell
///    conductance g in [g_off, g_on];
///  - internal logic-op operand reads are free (uncharged `bit_of`).
///
/// Time is input-independent and therefore exact. Energy depends on which
/// conditional ops fire, so the estimate carries a hard [min, max] bracket
/// (no-fire/g_off vs. all-fire/g_on) plus an expectation over uniformly
/// distributed inputs. Up to `kExactCostInputCap` inputs the expectation is
/// computed *exactly* over a word-sliced domain — each cell's resident
/// value is one uint64_t per block of 64 input assignments, and each
/// conditional op or sensed read sums its popcount over every block before
/// it is charged, once and in program order, so fire probabilities are
/// minterm counts, not independence approximations; past the cap a
/// per-cell probability propagation takes over. Stochastic write
/// variation and read noise are zero-mean, so measured energy converges to
/// the expectation (the `bench_fig8_eda_flow` gate checks 15%).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "device/technology.hpp"
#include "eda/verify/access.hpp"
#include "eda/verify/diagnostics.hpp"
#include "eda/verify/verify.hpp"

namespace cim::eda::verify {

/// Inputs at or below this count use the exact (word-sliced) cost
/// expectation; above it, independence-based probability propagation.
inline constexpr std::size_t kExactCostInputCap = 12;

/// Static cost estimate for one program execution.
struct CostEstimate {
  double time_ns = 0.0;       ///< exact: micro-op schedules are data-blind
  double energy_pj_min = 0.0; ///< no conditional fires, reads at g_off
  double energy_pj_max = 0.0; ///< every conditional fires, reads at g_on
  double energy_pj_exp = 0.0; ///< expectation over uniform inputs
  bool exact_expectation = false;  ///< expectation symbolic, not approximated
  std::size_t write_slots = 0;     ///< pulse windows charged t_write_ns
  std::size_t conditional_ops = 0; ///< data-dependent subset of write_slots
  std::size_t sensed_reads = 0;    ///< charged read_bit events
};

CostEstimate estimate_cost(const ImplyProgram& prog,
                           const device::TechnologyParams& tech);
CostEstimate estimate_cost(const MagicProgram& prog,
                           const device::TechnologyParams& tech);
CostEstimate estimate_cost(const RevampProgram& prog,
                           const device::TechnologyParams& tech);

/// Per-execution budget for `certify_cost` (0 = unconstrained dimension).
struct CostBudget {
  double time_ns = 0.0;
  double energy_pj = 0.0;
};

/// Appends a `cost-budget` error for every budget dimension the estimate's
/// worst case exceeds.
void certify_cost(const CostEstimate& cost, const CostBudget& budget,
                  VerifyReport& rep);

/// Static lifetime statement for one program placement.
struct WearCertificate {
  std::size_t max_writes_per_run = 0;  ///< worst cell, launch included
  std::size_t total_writes_per_run = 0;
  double endurance_mean = 0.0;         ///< device budget (writes per cell)
  /// Evaluations the endurance sustains on the worst cell (mean-endurance
  /// estimate; UINT64_MAX when the program never writes).
  std::uint64_t certified_evaluations = 0;
};

/// Certifies `access` against the technology endurance in `opts`. When
/// `planned_evaluations * max_writes_per_run` exceeds the device endurance,
/// a `wear-budget` error is appended per offending cell (first few) and
/// summarized.
WearCertificate certify_wear(const ProgramAccess& access,
                             const VerifyOptions& opts,
                             std::uint64_t planned_evaluations,
                             VerifyReport& rep);

/// One named program placement for the static wear heatmap export.
struct StaticWearEntry {
  std::string name;
  const ProgramAccess* access = nullptr;
};

/// Writes the per-cell static write bounds in the `cim-health-heatmap-v1`
/// JSON schema (wear = write bound, adc_samples = sensed reads per column;
/// disturb/drift/sneak planes are zero — they are runtime-only phenomena).
void write_static_wear_json(std::ostream& os,
                            const std::vector<StaticWearEntry>& entries);

}  // namespace cim::eda::verify
