/// \file verified.hpp
/// \brief verified: the functional verdict of `verify::check_program` on a
///        compiled program against its source IR, for the mapper tests.
#pragma once

#include "eda/verify/wear_cost.hpp"

namespace cim::eda {

/// `check_program(prog, &source)` asked to match the source: true iff the
/// program is well formed for `source` and equals it on every assignment.
template <typename Prog, typename Source>
bool verified(const Prog& prog, const Source& source) {
  verify::CheckOptions opts;
  opts.match_source = true;
  return verify::check_program(prog, &source, opts).verified;
}

}  // namespace cim::eda
