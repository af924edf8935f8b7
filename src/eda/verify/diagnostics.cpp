#include "eda/verify/diagnostics.hpp"

#include <sstream>

namespace cim::eda::verify {

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
  }
  return "unknown";
}

std::string_view rule_id(Rule rule) {
  switch (rule) {
    case Rule::kUseBeforeInit: return "use-before-init";
    case Rule::kWriteAfterWrite: return "write-after-write";
    case Rule::kDeadCellRead: return "dead-cell-read";
    case Rule::kOobCell: return "oob-cell";
    case Rule::kOutputUnreachable: return "output-unreachable";
    case Rule::kDmrNotLatched: return "dmr-not-latched";
    case Rule::kRawHazard: return "raw-hazard";
    case Rule::kWawHazard: return "waw-hazard";
    case Rule::kWarHazard: return "war-hazard";
    case Rule::kAdcConflict: return "shared-adc-conflict";
    case Rule::kRowDriverConflict: return "shared-row-driver";
    case Rule::kWearBudget: return "wear-budget";
    case Rule::kCostBudget: return "cost-budget";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << severity_name(severity) << "[" << rule_id(rule) << "]";
  if (instr != kNoInstr) os << " @instr " << instr;
  if (cell != kNoCell) os << " cell " << cell;
  os << ": " << message;
  return os.str();
}

bool VerifyReport::clean() const { return errors() == 0; }

std::size_t VerifyReport::errors() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics)
    if (d.severity == Severity::kError) ++n;
  return n;
}

std::size_t VerifyReport::warnings() const {
  return diagnostics.size() - errors();
}

std::size_t VerifyReport::count(Rule rule) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics)
    if (d.rule == rule) ++n;
  return n;
}

}  // namespace cim::eda::verify
