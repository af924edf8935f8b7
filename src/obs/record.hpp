/// \file record.hpp
/// \brief The record codec: one line grammar, one number syntax, one
///        header check and one error type behind every versioned text
///        format — `cim-prog-v1`, `cim-trace-v1`, `cim-reqlog-v1`,
///        `cim-campaign-v1`, the campaign worker pipe and the snapshot JSON
///        (DESIGN.md section 14).
///
/// A line loses its trailing whitespace; blank lines and lines whose first
/// token starts with `#` are skipped, and a `#` token starts a comment. The
/// header is the first remaining line. Every malformed input raises
/// `ParseError`: "<format> parse error: line N: <what> (col C)", 1-based.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cim::obs::json {
class Value;
}

namespace cim::obs::record {

inline constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();

/// A malformed record, located by 1-based line and byte column.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string_view format, std::size_t line, std::size_t col,
             const std::string& what);
  std::size_t line() const { return line_; }
  std::size_t col() const { return col_; }

 private:
  std::size_t line_;
  std::size_t col_;
};

// --- numbers -----------------------------------------------------------------

/// Decimal digits only, at most `max`; nullopt otherwise.
std::optional<std::uint64_t> u64(std::string_view tok,
                                 std::uint64_t max = kU64Max);
/// An optional `-` followed by decimal digits, within int64_t.
std::optional<std::int64_t> i64(std::string_view tok);
/// A double in the language `%.17g` prints; nullopt on anything else,
/// including overflow and underflow to zero.
std::optional<double> f64(std::string_view tok);
/// Hex digits (either case) of a value below 2^64; no `0x`, no sign.
std::optional<std::uint64_t> hex64(std::string_view tok);

/// The value of the numeric environment variable `name` (callers pass
/// std::getenv(name)) read with u64, at most `max`. Null or empty gives
/// nullopt; so does a malformed value, after one stderr line naming `name`.
std::optional<std::uint64_t> env_u64(const char* name, const char* value,
                                     std::uint64_t max = kU64Max);
/// The same with f64, finite values only.
std::optional<double> env_f64(const char* name, const char* value);

/// `%.17g`: 17 significant digits, which round-trip every double bitwise.
std::string g17(double v);
/// Sixteen lowercase hex digits (`%016x`).
std::string hex16(std::uint64_t v);
/// A JSON number: `%.17g` when finite, `0` otherwise.
std::string json_num(double v);
/// A quoted JSON string: `"` and `\` escaped, \n \t \r by name, other
/// control bytes as \u00XX, every other byte verbatim.
std::string json_string(std::string_view s);

// --- reading -----------------------------------------------------------------

/// Streams the lines of one record document from an istream (never reading
/// the whole stream first) or from a string_view, with a token cursor over
/// the current line. `format` names the format in every error and must
/// outlive the reader (formats pass a literal).
class Reader {
 public:
  Reader(std::istream& is, std::string_view format)
      : is_(&is), format_(format) {}
  Reader(std::string_view text, std::string_view format)
      : text_(text), format_(format) {}

  /// Advances to the next line that is neither blank nor a comment;
  /// false at end of input.
  bool next();
  /// Reads the header line and its first token, which must be `magic`.
  /// The header's remaining tokens are left for the caller.
  void header(std::string_view magic);

  /// True when the current line has no token left (a `#` token ends it).
  bool at_end();
  /// The number of tokens left on the current line, without consuming any.
  std::size_t tokens_left();
  /// The next token; fails with "missing <what>" when there is none.
  std::string_view token(std::string_view what);
  /// Consumes the next token, which must equal `kw`; returns *this, so a
  /// keyword and its value read as `r.expect("seed").u64("seed")`.
  Reader& expect(std::string_view kw);
  /// Fails when a token is left on the current line.
  void end();

  std::uint64_t u64(std::string_view what, std::uint64_t max = kU64Max);
  double f64(std::string_view what);
  std::uint64_t hex64(std::string_view what);

  /// Throws a ParseError at the current line and the last token's column.
  [[noreturn]] void fail(const std::string& what) const;

  /// JSON lines: the header line is an object whose "format" is `magic`;
  /// every later line is parsed as JSON and handed to `decode`. An error
  /// `decode` raises (a missing key, a wrong type, a bad value) becomes a
  /// ParseError naming that line.
  void json_lines(std::string_view magic,
                  const std::function<void(const json::Value&)>& decode);

 private:
  bool read_line();

  std::istream* is_ = nullptr;
  std::string_view text_;
  std::string_view format_;
  std::string buf_;
  std::string_view line_;
  std::size_t line_no_ = 0;
  std::size_t pos_ = 0;  ///< token cursor in line_
  std::size_t col_ = 1;  ///< 1-based column of the last token
  bool eof_ = false;
};

/// A single JSON document (which may span lines): parse errors carry their
/// line and column; an error `decode` raises becomes a ParseError at line 1.
void decode_json(std::string_view text, std::string_view format,
                 const std::function<void(const json::Value&)>& decode);

}  // namespace cim::obs::record
