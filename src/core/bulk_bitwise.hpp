/// \file bulk_bitwise.hpp
/// \brief Bulk bitwise operations in the periphery (Section II.A cites
///        Pinatubo [21]: "a processing-in-memory architecture for bulk
///        bitwise operations in emerging non-volatile memories", the
///        canonical CIM-P workload of Table I).
///
/// Memory rows hold data words; activating two rows at once lets the
/// modified sense amplifiers latch AND/OR/XOR of the whole word in a single
/// sense cycle (Scouting-logic reads), and the result row is written back
/// in one write cycle. The COM-F baseline must stream both operands over
/// the memory bus, compute in the ALU and stream the result back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "crossbar/crossbar.hpp"

namespace cim::core {

/// Cost report of a bulk operation.
struct BulkOpStats {
  std::size_t ops = 0;           ///< row-ops executed
  double lockstep_time_ns = 0.0; ///< sense + write-back cycles (row-parallel)
  double energy_pj = 0.0;        ///< array energy
};

/// Pinatubo-style bulk bitwise engine: one word per crossbar row.
class BulkBitwiseEngine {
 public:
  /// `words` rows of `bits` columns.
  BulkBitwiseEngine(std::size_t words, std::size_t bits,
                    std::uint64_t seed = 5);

  std::size_t words() const { return words_; }
  std::size_t bits() const { return bits_; }

  /// Stores a word (LSB in column 0) in one row write
  /// (crossbar::Crossbar::write_row).
  void store(std::size_t word, std::uint64_t value);
  std::uint64_t load(std::size_t word);

  /// dest <- r1 op r2, computed in the sense amplifiers (one sense cycle)
  /// and written back (one write cycle).
  void op_rows(std::size_t dest, std::size_t r1, std::size_t r2,
               crossbar::ScoutOp op);

  /// Stats accumulated since construction / reset.
  const BulkOpStats& stats() const { return stats_; }
  void reset_stats();

  /// COM-F cost model for the same operation stream: every operand word
  /// crosses the DDR boundary twice (2 loads + 1 store per op).
  struct ComFBaseline {
    double time_ns = 0.0;
    double energy_pj = 0.0;
  };
  ComFBaseline com_f_baseline(std::size_t ops) const;

 private:
  std::size_t words_;
  std::size_t bits_;
  std::unique_ptr<crossbar::Crossbar> xbar_;
  BulkOpStats stats_;
};

}  // namespace cim::core
