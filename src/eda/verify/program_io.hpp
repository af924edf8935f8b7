/// \file program_io.hpp
/// \brief Text serialization of compiled micro-op programs — the
///        `cim-prog-v1` format the `cim-lint` CLI reads and the mappers
///        dump for offline analysis.
///
/// One program per file, in the record codec's line grammar, number
/// syntax and errors (obs/record.hpp). The header is
/// `cim-prog-v1 <family>` with family one of `imply`, `magic`, `revamp`.
/// Node annotations (`@N`) are optional — they carry the mapper's IR
/// introspection hooks so the liveness rules can run offline; `@-` (or
/// omission) means "no node".
///
/// ```
/// cim-prog-v1 imply
/// inputs 2
/// cells 5
/// zero 2
/// false 3 @-
/// imply 3 0 @4
/// output 3
/// ```
///
/// MAGIC instructions are `set <out> @N` / `nor <out> <in...> @N`, outputs
/// `output <cell>` or `output const <0|1>`. ReVAMP instructions are
/// `read <wl>` / `apply <wl> <wl-op> <col>=<op> ...` with operands encoded
/// `c0`, `c1`, `i<k>`, `d<r>.<c>`, optionally prefixed `!` for a
/// complemented driver; the header grows `wordlines` / `bitlines` lines,
/// each at most kMaxArrayLines, and every column index is below
/// `bitlines`.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>

#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/revamp_isa.hpp"

namespace cim::eda::verify {

/// Largest `wordlines` / `bitlines` a file may declare: each ReVAMP `apply`
/// holds one slot per bitline, so a short file cannot size a large one.
inline constexpr std::size_t kMaxArrayLines = 4096;

/// Program family tag of a parsed `cim-prog-v1` file.
enum class ProgramFamily { kImply, kMagic, kRevamp };

/// A parsed program: exactly the member matching `family` is meaningful.
struct ParsedProgram {
  ProgramFamily family = ProgramFamily::kImply;
  ImplyProgram imply;
  MagicProgram magic;
  RevampProgram revamp;
};

void dump_program(std::ostream& os, const ImplyProgram& prog);
void dump_program(std::ostream& os, const MagicProgram& prog);
void dump_program(std::ostream& os, const RevampProgram& prog);

/// Parses a `cim-prog-v1` stream. Returns std::nullopt and sets `error`
/// (when non-null) on malformed input.
std::optional<ParsedProgram> parse_program(std::istream& is,
                                           std::string* error = nullptr);

}  // namespace cim::eda::verify
