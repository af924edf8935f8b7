#include "core/bulk_bitwise.hpp"

#include <stdexcept>

namespace cim::core {

BulkBitwiseEngine::BulkBitwiseEngine(std::size_t words, std::size_t bits,
                                     std::uint64_t seed)
    : words_(words), bits_(bits) {
  if (words == 0 || bits == 0 || bits > 64)
    throw std::invalid_argument("BulkBitwiseEngine: words>=1, bits in [1,64]");
  crossbar::CrossbarConfig cfg;
  cfg.rows = words;
  cfg.cols = bits;
  cfg.tech = device::Technology::kReRamHfOx;  // large on/off for clean sums
  cfg.levels = 2;
  cfg.model_ir_drop = false;
  cfg.verified_writes = true;
  cfg.seed = seed;
  xbar_ = std::make_unique<crossbar::Crossbar>(cfg);
}

void BulkBitwiseEngine::store(std::size_t word, std::uint64_t value) {
  if (word >= words_) throw std::out_of_range("BulkBitwiseEngine::store");
  std::vector<bool> row(bits_);
  for (std::size_t b = 0; b < bits_; ++b) row[b] = (value >> b) & 1ULL;
  xbar_->write_row(word, row);
}

std::uint64_t BulkBitwiseEngine::load(std::size_t word) {
  if (word >= words_) throw std::out_of_range("BulkBitwiseEngine::load");
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < bits_; ++b)
    if (xbar_->read_bit(word, b)) v |= 1ULL << b;
  return v;
}

void BulkBitwiseEngine::op_rows(std::size_t dest, std::size_t r1,
                                std::size_t r2, crossbar::ScoutOp op) {
  if (dest >= words_ || r1 >= words_ || r2 >= words_)
    throw std::out_of_range("BulkBitwiseEngine::op_rows");
  const auto& tech = xbar_->tech();
  const double e0 = xbar_->stats().energy_pj;

  // All columns sense in parallel (one cycle), then the row is written back
  // in one write cycle; the per-column sense loop is simulation bookkeeping.
  std::vector<bool> row(bits_);
  for (std::size_t b = 0; b < bits_; ++b)
    row[b] = xbar_->scout_read(r1, r2, b, op);
  xbar_->write_row(dest, row);
  ++stats_.ops;
  stats_.lockstep_time_ns += tech.t_read_ns + tech.t_write_ns;
  stats_.energy_pj += xbar_->stats().energy_pj - e0;
}

void BulkBitwiseEngine::reset_stats() { stats_ = BulkOpStats{}; }

BulkBitwiseEngine::ComFBaseline BulkBitwiseEngine::com_f_baseline(
    std::size_t ops) const {
  // DDR channel: 25.6 GB/s, ~20 pJ/byte end to end; ALU cost negligible by
  // comparison. Per op: 2 operand loads + 1 result store.
  const double bytes_per_op = 3.0 * static_cast<double>(bits_) / 8.0;
  ComFBaseline base;
  base.time_ns = static_cast<double>(ops) * bytes_per_op / 25.6;
  base.energy_pj = static_cast<double>(ops) * bytes_per_op * 20.0;
  return base;
}

}  // namespace cim::core
