/// \file flag_number.hpp
/// \brief Numeric flag values of the cim-* tools, in the record codec's
///        number syntax (obs/record.hpp).
#pragma once

#include <iostream>
#include <optional>
#include <string_view>
#include <type_traits>

#include "obs/record.hpp"

/// Reads `value` into `out` with record::f64 or record::u64; false, after
/// a message, when it is malformed.
template <typename T>
bool parse_flag_number(std::string_view tool, std::string_view flag,
                       std::string_view value, T& out) {
  std::optional<T> v;
  if constexpr (std::is_floating_point_v<T>)
    v = cim::obs::record::f64(value);
  else
    v = cim::obs::record::u64(value);
  if (!v) std::cerr << tool << ": bad " << flag << " value '" << value << "'\n";
  out = v.value_or(out);
  return v.has_value();
}
