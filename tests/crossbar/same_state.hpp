/// \file same_state.hpp
/// \brief expect_same_state: the differential tests' bitwise comparison of
///        everything observable about two crossbars after the same reads.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "crossbar/crossbar.hpp"
#include "util/rng.hpp"

namespace cim::crossbar {

/// Every CrossbarStats field, last_op_energy_pj(), the next word and the
/// next normal of a copy of each array's generator, and every cell's
/// stored conductance, compared bitwise.
inline void expect_same_state(Crossbar& a, Crossbar& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const CrossbarStats& sa = a.stats();
  const CrossbarStats& sb = b.stats();
  EXPECT_EQ(sa.bit_reads, sb.bit_reads);
  EXPECT_EQ(sa.bit_writes, sb.bit_writes);
  EXPECT_EQ(sa.analog_writes, sb.analog_writes);
  EXPECT_EQ(sa.vmm_ops, sb.vmm_ops);
  EXPECT_EQ(sa.logic_ops, sb.logic_ops);
  EXPECT_EQ(bits(sa.time_ns), bits(sb.time_ns));
  EXPECT_EQ(bits(sa.energy_pj), bits(sb.energy_pj));
  EXPECT_EQ(sa.cache_full_rebuilds, sb.cache_full_rebuilds);
  EXPECT_EQ(sa.cache_delta_updates, sb.cache_delta_updates);
  EXPECT_EQ(sa.cache_dirty_cells, sb.cache_dirty_cells);
  EXPECT_EQ(bits(a.last_op_energy_pj()), bits(b.last_op_energy_pj()));
  util::Rng ra = a.rng();
  util::Rng rb = b.rng();
  EXPECT_EQ(ra(), rb());
  // normal() also exposes a cached second Box-Muller value.
  EXPECT_EQ(bits(ra.normal()), bits(rb.normal()));
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      ASSERT_EQ(bits(a.true_conductance(r, c)), bits(b.true_conductance(r, c)))
          << "cell (" << r << ", " << c << ")";
}

}  // namespace cim::crossbar
