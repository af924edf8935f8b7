/// \file trace_io.hpp
/// \brief `cim-trace-v1`: the request-trace text format (HybridSim-style
///        trace replay for the serving layer).
///
/// A trace file captures an open-loop request stream so a serving run can
/// be replayed exactly — across processes, hosts, and code versions — and
/// so external workloads can be fed to the controller without the
/// synthetic generator. Mirrors the `cim-prog-v1` conventions
/// (eda/verify/program_io): line-oriented text, `#` comments, a versioned
/// header, parse errors carry the 1-based line number, and
/// dump -> parse -> dump is a fixpoint (round-trip gated by
/// tests/serve/test_trace_io.cpp against the tests/data fixture).
///
/// Grammar (one request per line, fields space-separated):
///
///   cim-trace-v1
///   # comment / blank lines anywhere after the header
///   req <id> <arrival_ns> <vmm|infer> <input_bits> <full|calibrated|ideal>
///       <n> <v_0> ... <v_{n-1}>
///
/// `arrival_ns` is printed with 17 significant digits so the double
/// round-trips bit-exactly; arrivals must be non-decreasing in file order.
/// Each input `v_i` is an unsigned decimal below 2^input_bits: the tile
/// reads only the low input_bits bits, so a wider (or negative) value
/// would run on other inputs than the file states, and is rejected.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace cim::serve {

/// Writes `requests` as cim-trace-v1 (header + one `req` line each).
void dump_trace(std::ostream& os, std::span<const Request> requests);

/// Parses a cim-trace-v1 stream. On failure returns nullopt and, when
/// `error` is non-null, a "line N: ..." message; a malformed line never
/// yields a partial trace.
std::optional<std::vector<Request>> parse_trace(std::istream& is,
                                                std::string* error = nullptr);

}  // namespace cim::serve
