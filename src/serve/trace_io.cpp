#include "serve/trace_io.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

namespace cim::serve {

namespace {

constexpr const char* kHeader = "cim-trace-v1";

bool parse_kind(const std::string& tok, RequestKind& out) {
  if (tok == "vmm") {
    out = RequestKind::kVmm;
    return true;
  }
  if (tok == "infer") {
    out = RequestKind::kInference;
    return true;
  }
  return false;
}

bool parse_tier(const std::string& tok, crossbar::FidelityTier& out) {
  using crossbar::FidelityTier;
  for (const FidelityTier t :
       {FidelityTier::kFull, FidelityTier::kCalibrated, FidelityTier::kIdeal})
    if (tok == crossbar::tier_name(t)) {
      out = t;
      return true;
    }
  return false;
}

std::optional<std::vector<Request>> fail(std::string* error, std::size_t line,
                                         const std::string& msg) {
  if (error != nullptr)
    *error = "line " + std::to_string(line) + ": " + msg;
  return std::nullopt;
}

/// Strips the trailing CR of CRLF-translated traces plus trailing
/// spaces/tabs, so files that crossed a Windows checkout or an editor that
/// pads lines still parse. Leading whitespace stays significant.
void strip_trailing(std::string& line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ' ||
                           line.back() == '\t'))
    line.pop_back();
}

}  // namespace

void dump_trace(std::ostream& os, std::span<const Request> requests) {
  os << kHeader << '\n';
  char arrival[64];
  for (const Request& r : requests) {
    // 17 significant digits round-trip an IEEE double exactly.
    std::snprintf(arrival, sizeof(arrival), "%.17g", r.arrival_ns);
    os << "req " << r.id << ' ' << arrival << ' ' << kind_name(r.kind) << ' '
       << r.input_bits << ' ' << crossbar::tier_name(r.tier) << ' '
       << r.input.size();
    for (const std::uint32_t v : r.input) os << ' ' << v;
    os << '\n';
  }
}

std::optional<std::vector<Request>> parse_trace(std::istream& is,
                                                std::string* error) {
  std::string line;
  std::size_t lineno = 0;

  // Header must be the first non-blank, non-comment line.
  bool have_header = false;
  while (!have_header && std::getline(is, line)) {
    ++lineno;
    strip_trailing(line);
    if (line.empty() || line[0] == '#') continue;
    if (line != kHeader)
      return fail(error, lineno,
                  std::string("expected header '") + kHeader + "', got '" +
                      line + "'");
    have_header = true;
  }
  if (!have_header) return fail(error, lineno, "missing cim-trace-v1 header");

  std::vector<Request> out;
  double prev_arrival = 0.0;
  while (std::getline(is, line)) {
    ++lineno;
    strip_trailing(line);
    if (line.empty() || line[0] == '#') continue;

    std::istringstream fields(line);
    std::string op;
    fields >> op;
    if (op != "req")
      return fail(error, lineno, "unknown record '" + op + "'");

    Request req;
    std::string kind_tok;
    std::string tier_tok;
    std::size_t n = 0;
    if (!(fields >> req.id >> req.arrival_ns >> kind_tok >> req.input_bits >>
          tier_tok >> n))
      return fail(error, lineno, "malformed req record");
    if (!parse_kind(kind_tok, req.kind))
      return fail(error, lineno, "unknown request kind '" + kind_tok + "'");
    if (!parse_tier(tier_tok, req.tier))
      return fail(error, lineno, "unknown fidelity tier '" + tier_tok + "'");
    if (req.input_bits < 1 || req.input_bits > 16)
      return fail(error, lineno, "input_bits must be in [1,16]");
    if (req.arrival_ns < prev_arrival)
      return fail(error, lineno, "arrival_ns decreased (trace must be sorted)");
    prev_arrival = req.arrival_ns;

    req.input.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Parsed as text: `>>` into an unsigned type would take "-1" as
      // 2^32 - 1.
      std::string tok;
      if (!(fields >> tok))
        return fail(error, lineno,
                    "req declares " + std::to_string(n) + " inputs but has " +
                        std::to_string(i));
      std::uint64_t value = 0;
      const char* end = tok.data() + tok.size();
      const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
      if (ec != std::errc{} || ptr != end)
        return fail(error, lineno,
                    "input " + std::to_string(i) + " '" + tok +
                        "' is not an unsigned integer");
      if ((value >> req.input_bits) != 0)
        return fail(error, lineno,
                    "input " + std::to_string(i) + " = " + tok +
                        " does not fit in input_bits = " +
                        std::to_string(req.input_bits));
      req.input[i] = static_cast<std::uint32_t>(value);
    }
    std::string extra;
    if (fields >> extra)
      return fail(error, lineno, "trailing fields after input vector");
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace cim::serve
