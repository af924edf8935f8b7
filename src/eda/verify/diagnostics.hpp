/// \file diagnostics.hpp
/// \brief Structured lint diagnostics for the static micro-op program
///        verifier (`cim::eda::verify`).
///
/// Every rule violation found by the per-family analyses is reported as a
/// `Diagnostic` carrying a stable machine-readable rule id, the offending
/// instruction index and cell, a severity, and a human-readable message —
/// the shape a `cim-lint` CLI would print and a CI gate would grep.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cim::eda::verify {

/// Diagnostic severity: errors make a program un-clean, warnings do not.
enum class Severity { kError, kWarning };
std::string_view severity_name(Severity severity);

/// Stable rule identifiers (one per static-analysis check).
enum class Rule {
  kUseBeforeInit,      ///< a micro-op reads a cell that was never initialized
  kWriteAfterWrite,    ///< MAGIC NOR drives a cell that was not re-SET
  kDeadCellRead,       ///< liveness hazard: stale/recycled value read or a
                       ///< live cell overwritten before its last fanout
  kOobCell,            ///< cell/row/column index outside the program or the
                       ///< target crossbar geometry
  kOutputUnreachable,  ///< an output tap is not dominated by a defining write
  kDmrNotLatched,      ///< ReVAMP operand reads a DMR row that was never (or
                       ///< stalely) latched by a READ
  // Cross-tile hazard analysis (eda/verify/hazard.hpp): static races between
  // programs scheduled concurrently on a shared tile.
  kRawHazard,          ///< a later program reads cells a concurrent earlier
                       ///< program writes (read-after-write race)
  kWawHazard,          ///< two concurrent programs write the same cells
  kWarHazard,          ///< a later program writes cells a concurrent earlier
                       ///< program still reads (write-after-read race)
  kAdcConflict,        ///< two concurrent programs contend for the same
                       ///< physical (column-muxed) ADC channel
  kRowDriverConflict,  ///< two concurrent programs drive the same wordline
  // Static wear & cost certification (eda/verify/wear_cost.hpp).
  kWearBudget,         ///< lifetime wear bound: writes/run x planned
                       ///< evaluations exceeds the device endurance
  kCostBudget,         ///< static energy/latency estimate exceeds the
                       ///< caller's cost budget
};

/// The machine-readable rule id ("use-before-init", ...).
std::string_view rule_id(Rule rule);

/// Sentinels for diagnostics not tied to one instruction / cell.
inline constexpr std::size_t kNoInstr = static_cast<std::size_t>(-1);
inline constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

/// One lint finding.
struct Diagnostic {
  Severity severity = Severity::kError;
  Rule rule = Rule::kUseBeforeInit;
  std::size_t instr = kNoInstr;  ///< instruction index (kNoInstr: program)
  std::size_t cell = kNoCell;    ///< flat cell / column id (kNoCell: n/a)
  std::string message;

  /// "error[use-before-init] @instr 4 cell 7: ..." rendering.
  std::string to_string() const;
};

/// Result of statically verifying one compiled program.
struct VerifyReport {
  std::vector<Diagnostic> diagnostics;
  std::size_t max_writes_per_cell = 0;  ///< worst per-cell write bound
  std::size_t cells_tracked = 0;        ///< cells covered by the analysis

  /// True when no error-severity diagnostic was produced.
  bool clean() const;
  std::size_t errors() const;
  std::size_t warnings() const;
  /// Number of diagnostics carrying `rule`.
  std::size_t count(Rule rule) const;
};

}  // namespace cim::eda::verify
