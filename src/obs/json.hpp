/// \file json.hpp
/// \brief JSON values and the reader of the record codec (obs/record.hpp)
///        for the cim-reqlog-v1 lines, the snapshot JSON and the exporter
///        output tests validate.
///
/// Duplicate keys and non-finite numbers are rejected and nesting is
/// bounded. A number keeps its text, so `as_u64` / `as_i64` read integers
/// exactly from their digits, never through a double.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace cim::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON number, kept as its (validated, finite) source text.
struct Number {
  std::string text;
};

/// A parsed JSON value. Accessors throw std::runtime_error on a type
/// mismatch or missing key; the record codec turns that into a
/// line-numbered ParseError.
class Value {
 public:
  Value() = default;
  explicit Value(bool b) : v_(b) {}
  explicit Value(Number n) : v_(std::move(n)) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(Array a) : v_(std::move(a)) {}
  explicit Value(Object o) : v_(std::move(o)) {}

  bool is_number() const { return std::holds_alternative<Number>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return get<bool>("bool"); }
  double as_number() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const std::string& as_string() const { return get<std::string>("string"); }
  const Array& as_array() const { return get<Array>("array"); }
  const Object& as_object() const { return get<Object>("object"); }

  /// Object member access; throws if not an object or key missing.
  const Value& at(const std::string& key) const {
    const Object& obj = as_object();
    auto it = obj.find(key);
    if (it == obj.end())
      throw std::runtime_error("json: missing '" + key + "'");
    return it->second;
  }
  bool contains(const std::string& key) const {
    return is_object() && as_object().count(key) != 0;
  }

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (!std::holds_alternative<T>(v_))
      throw std::runtime_error(std::string("json: value is not a ") + what);
    return std::get<T>(v_);
  }

  std::variant<std::nullptr_t, bool, Number, std::string, Array, Object> v_;
};

/// Parses `text` as a single JSON document; throws record::ParseError
/// (format "json") with line and column on malformed input.
Value parse(std::string_view text);

}  // namespace cim::obs::json
