/// \file record.cpp
/// \brief The record codec (record.hpp) and the JSON reader (json.hpp).
#include "obs/record.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <istream>

#include "obs/json.hpp"

namespace cim::obs::record {

namespace {

/// Whitespace inside a line ('\n' ends the line and never appears).
constexpr std::string_view kSpace = " \t\r\v\f";

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// All of `tok` through std::from_chars; nullopt on a partial parse or a
/// value out of range.
template <typename T, typename... Base>
std::optional<T> parse_all(std::string_view tok, Base... base) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v, base...);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// Recursive-descent JSON reader. An error names the failing byte by line
/// (counted from `first_line`) and column.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string_view format,
             std::size_t first_line)
      : text_(text), format_(format), first_line_(first_line) {}

  json::Value document() {
    json::Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    const std::string_view before = text_.substr(0, pos_);
    const std::size_t nl = before.rfind('\n');
    const std::size_t col = nl == before.npos ? pos_ + 1 : pos_ - nl;
    throw ParseError(format_, first_line_ + std::count(before.begin(),
                                                       before.end(), '\n'),
                     col, what);
  }

  void skip_ws() {
    pos_ = std::min(text_.find_first_not_of(" \t\n\r\v\f", pos_),
                    text_.size());
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  /// The comma-separated members of an object or array up to `close`.
  template <typename Member>
  void members(char close, Member&& member) {
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return;
    }
    for (;;) {
      member();
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(close);
  }

  json::Value value(int depth) {
    if (depth > kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos_;
      json::Object obj;
      members('}', [&] {
        skip_ws();
        const std::size_t key_pos = pos_;
        std::string key = string();
        skip_ws();
        expect(':');
        if (!obj.try_emplace(key, value(depth + 1)).second) {
          pos_ = key_pos;
          fail("duplicate key '" + key + "'");
        }
      });
      return json::Value(std::move(obj));
    }
    if (c == '[') {
      ++pos_;
      json::Array arr;
      members(']', [&] { arr.push_back(value(depth + 1)); });
      return json::Value(std::move(arr));
    }
    if (c == '"') return json::Value(string());
    if (literal("true")) return json::Value(true);
    if (literal("false")) return json::Value(false);
    if (literal("null")) return json::Value();
    return number();
  }

  bool literal(std::string_view lit) {
    if (!text_.substr(pos_).starts_with(lit)) return false;
    pos_ += lit.size();
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      const std::size_t simple = std::string_view("\"\\/bfnrt").find(e);
      if (simple != std::string_view::npos) {
        out += "\"\\/\b\f\n\r\t"[simple];
        continue;
      }
      const auto code = parse_all<unsigned>(text_.substr(pos_, 4), 16);
      if (e != 'u' || pos_ + 4 > text_.size() || !code) {
        --pos_;
        fail("bad escape");
      }
      pos_ += 4;
      // UTF-8 of the code unit (a lone surrogate is encoded as is).
      if (*code < 0x80) {
        out += static_cast<char>(*code);
      } else if (*code < 0x800) {
        out += static_cast<char>(0xC0 | (*code >> 6));
        out += static_cast<char>(0x80 | (*code & 0x3F));
      } else {
        out += static_cast<char>(0xE0 | (*code >> 12));
        out += static_cast<char>(0x80 | ((*code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (*code & 0x3F));
      }
    }
  }

  json::Value number() {
    const std::string_view tok =
        text_.substr(pos_, text_.find_first_not_of("0123456789.eE+-", pos_) -
                               pos_);
    if (tok.empty()) fail("expected a value");
    const auto v = f64(tok);
    if (!v || !std::isfinite(*v))
      fail("bad number '" + std::string(tok) + "'");
    pos_ += tok.size();
    return json::Value(json::Number{std::string(tok)});
  }

  std::string_view text_;
  std::string_view format_;
  std::size_t first_line_;
  std::size_t pos_ = 0;
};

/// Runs `decode`, turning any error it raises into a ParseError at `line`.
void decode_at(std::string_view format, std::size_t line,
               const std::function<void(const json::Value&)>& decode,
               const json::Value& v) {
  try {
    decode(v);
  } catch (const std::runtime_error& e) {
    throw ParseError(format, line, 1, e.what());
  }
}

}  // namespace

ParseError::ParseError(std::string_view format, std::size_t line,
                       std::size_t col, const std::string& what)
    : std::runtime_error(std::string(format) + " parse error: line " +
                         std::to_string(line) + ": " + what + " (col " +
                         std::to_string(col) + ")"),
      line_(line),
      col_(col) {}

// --- numbers -----------------------------------------------------------------

std::optional<std::uint64_t> u64(std::string_view tok, std::uint64_t max) {
  const auto v = parse_all<std::uint64_t>(tok);
  if (!v || *v > max) return std::nullopt;
  return v;
}

std::optional<std::int64_t> i64(std::string_view tok) {
  return parse_all<std::int64_t>(tok);
}

std::optional<double> f64(std::string_view tok) {
  const std::string_view body = tok.substr(tok.starts_with('-') ? 1 : 0);
  if (body != "inf" && body != "nan" &&
      !(body.starts_with('.') || (!body.empty() && is_digit(body[0]))))
    return std::nullopt;
  return parse_all<double>(tok);
}

std::optional<std::uint64_t> hex64(std::string_view tok) {
  return parse_all<std::uint64_t>(tok, 16);
}

namespace {

void warn_malformed(const char* name, const char* value) {
  std::fprintf(stderr, "%s: ignoring malformed value '%s'\n", name, value);
}

}  // namespace

std::optional<std::uint64_t> env_u64(const char* name, const char* value,
                                     std::uint64_t max) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  const auto v = u64(value, max);
  if (!v) warn_malformed(name, value);
  return v;
}

std::optional<double> env_f64(const char* name, const char* value) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  const auto v = f64(value);
  if (v && std::isfinite(*v)) return v;
  warn_malformed(name, value);
  return std::nullopt;
}

std::optional<std::size_t> env_choice(
    const char* name, const char* value,
    std::initializer_list<std::string_view> choices) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  std::size_t k = 0;
  std::string known;
  for (const auto choice : choices) {
    if (choice == value) return k;
    known += (k++ == 0 ? "" : " ") + std::string(choice);
  }
  std::fprintf(stderr, "%s: ignoring unknown value '%s' (one of: %s)\n", name,
               value, known.c_str());
  return std::nullopt;
}

std::optional<bool> env_switch(const char* name, const char* value) {
  const auto k =
      env_choice(name, value, {"0", "off", "false", "1", "on", "true"});
  if (!k) return std::nullopt;
  return *k >= 3;
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_num(double v) { return std::isfinite(v) ? g17(v) : "0"; }

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    const std::size_t named = std::string_view("\"\\\n\t\r").find(c);
    if (named != std::string_view::npos) {
      out += '\\';
      out += "\"\\ntr"[named];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

// --- reading -----------------------------------------------------------------

bool Reader::read_line() {
  if (is_ != nullptr) {
    if (!std::getline(*is_, buf_)) return false;
    line_ = buf_;
    return true;
  }
  if (text_.empty()) return false;
  const std::size_t nl = std::min(text_.find('\n'), text_.size());
  line_ = text_.substr(0, nl);
  text_.remove_prefix(std::min(nl + 1, text_.size()));
  return true;
}

bool Reader::next() {
  while (!eof_) {
    ++line_no_;  // past the last line, errors name the line after it
    eof_ = !read_line();
    if (eof_) line_ = {};
    line_ = line_.substr(0, line_.find_last_not_of(kSpace) + 1);
    pos_ = 0;
    col_ = 1;
    if (!eof_ && !at_end()) return true;
  }
  return false;
}

void Reader::header(std::string_view magic) {
  if (!next())
    fail("empty stream: no header (missing '" + std::string(magic) + "')");
  const std::string_view got = token("header");
  if (got != magic)
    fail("expected header '" + std::string(magic) + "', got '" +
         std::string(got) + "'");
}

bool Reader::at_end() {
  pos_ = std::min(line_.find_first_not_of(kSpace, pos_), line_.size());
  return pos_ == line_.size() || line_[pos_] == '#';
}

std::size_t Reader::tokens_left() {
  const std::size_t saved = pos_;
  std::size_t n = 0;
  for (; !at_end(); ++n)
    pos_ = std::min(line_.find_first_of(kSpace, pos_), line_.size());
  pos_ = saved;
  return n;
}

std::string_view Reader::token(std::string_view what) {
  const bool none = at_end();
  col_ = pos_ + 1;
  if (none) fail("missing " + std::string(what));
  const std::size_t start = pos_;
  pos_ = std::min(line_.find_first_of(kSpace, pos_), line_.size());
  return line_.substr(start, pos_ - start);
}

Reader& Reader::expect(std::string_view kw) {
  const std::string_view tok = token(kw);
  if (tok != kw)
    fail("expected '" + std::string(kw) + "', got '" + std::string(tok) +
         "'");
  return *this;
}

void Reader::end() {
  if (at_end()) return;
  col_ = pos_ + 1;
  fail("trailing tokens");
}

std::uint64_t Reader::u64(std::string_view what, std::uint64_t max) {
  const std::string_view tok = token(what);
  const auto v = record::u64(tok, max);
  if (!v)
    fail(std::string(what) + " '" + std::string(tok) +
         "' is not an unsigned integer" +
         (max != kU64Max ? " <= " + std::to_string(max) : ""));
  return *v;
}

double Reader::f64(std::string_view what) {
  const std::string_view tok = token(what);
  const auto v = record::f64(tok);
  if (!v)
    fail(std::string(what) + " '" + std::string(tok) + "' is not a number");
  return *v;
}

std::uint64_t Reader::hex64(std::string_view what) {
  const std::string_view tok = token(what);
  const auto v = record::hex64(tok);
  if (!v)
    fail(std::string(what) + " '" + std::string(tok) +
         "' is not a 64-bit hex value");
  return *v;
}

void Reader::fail(const std::string& what) const {
  throw ParseError(format_, line_no_, col_, what);
}

void Reader::json_lines(
    std::string_view magic,
    const std::function<void(const json::Value&)>& decode) {
  const std::string want(magic);
  const auto header = [&](const json::Value& head) {
    if (head.at("format").as_string() != want)
      throw std::runtime_error("expected header {\"format\":\"" + want +
                               "\"}");
  };
  const auto line = [&] {
    return JsonParser(line_, format_, line_no_).document();
  };
  if (!next()) fail("empty stream: no header (missing '" + want + "')");
  decode_at(format_, line_no_, header, line());
  while (next()) decode_at(format_, line_no_, decode, line());
}

}  // namespace cim::obs::record

namespace cim::obs::json {

double Value::as_number() const {
  return *record::f64(get<Number>("number").text);
}

std::uint64_t Value::as_u64() const {
  const std::string& t = get<Number>("number").text;
  const auto v = record::u64(t);
  if (!v)
    throw std::runtime_error("json: number " + t +
                             " is not an unsigned integer");
  return *v;
}

std::int64_t Value::as_i64() const {
  const std::string& t = get<Number>("number").text;
  const auto v = record::i64(t);
  if (!v) throw std::runtime_error("json: number " + t + " is not an integer");
  return *v;
}

Value parse(std::string_view text) {
  return record::JsonParser(text, "json", 1).document();
}

}  // namespace cim::obs::json
