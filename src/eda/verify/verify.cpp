#include "eda/verify/verify.hpp"

namespace cim::eda::verify {

util::Table lint_table(const std::vector<LintEntry>& entries) {
  util::Table t({"circuit", "family", "errors", "warnings", "max W/cell",
                 "first rule", "clean"});
  t.set_title("cim-lint summary");
  for (const auto& e : entries) {
    std::string first_rule = "-";
    if (!e.report.diagnostics.empty())
      first_rule = std::string(rule_id(e.report.diagnostics.front().rule));
    t.add_row({e.name, e.family, std::to_string(e.report.errors()),
               std::to_string(e.report.warnings()),
               std::to_string(e.report.max_writes_per_cell), first_rule,
               e.report.clean() ? "yes" : "NO"});
  }
  return t;
}

}  // namespace cim::eda::verify
