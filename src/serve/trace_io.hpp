/// \file trace_io.hpp
/// \brief `cim-trace-v1`: the request-trace text format (HybridSim-style
///        trace replay for the serving layer).
///
/// A trace file captures an open-loop request stream so a serving run can
/// be replayed exactly — across processes, hosts, and code versions — and
/// so external workloads can be fed to the controller without the
/// synthetic generator. Lines, comments, numbers and errors follow the
/// record codec (obs/record.hpp), and dump -> parse -> dump is a fixpoint
/// (round-trip gated by tests/serve/test_trace_io.cpp against the
/// tests/data fixture).
///
/// Grammar (one request per line):
///
///   cim-trace-v1
///   req <id> <arrival_ns> <vmm|infer> <input_bits> <full|calibrated|ideal>
///       <n> <v_0> ... <v_{n-1}>
///
/// `arrival_ns` is finite, non-decreasing in file order and at most 2^53
/// ns, and `n` equals the number of inputs on the line.
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
/// `error` is non-null, the record::ParseError message ("... line N: ...");
/// a malformed line never yields a partial trace.
std::optional<std::vector<Request>> parse_trace(std::istream& is,
                                                std::string* error = nullptr);

}  // namespace cim::serve
