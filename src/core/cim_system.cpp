#include "core/cim_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/prom.hpp"

namespace cim::core {

CimSystem::CimSystem(const util::Matrix& w_int, CimSystemConfig cfg)
    : in_(w_int.cols()), out_(w_int.rows()), cfg_(cfg), weights_(w_int) {
  if (w_int.empty()) throw std::invalid_argument("CimSystem: empty weights");
  // Long-running system processes expose the scrape endpoint when asked
  // (CIM_OBS_PROM_PORT); idempotent, off unless telemetry is enabled.
  obs::maybe_start_prometheus_from_env();
  const std::size_t tr = cfg.tile.tile.rows;
  const std::size_t tc = cfg.tile.tile.cols;
  if (tr == 0 || tc == 0) throw std::invalid_argument("CimSystem: empty tile");

  std::uint64_t seed = cfg.tile.seed;
  for (std::size_t r0 = 0; r0 < in_; r0 += tr) {
    for (std::size_t c0 = 0; c0 < out_; c0 += tc) {
      Block blk;
      blk.row0 = r0;
      blk.col0 = c0;
      blk.rows = std::min(tr, in_ - r0);
      blk.cols = std::min(tc, out_ - c0);

      auto tile_cfg = cfg.tile;
      tile_cfg.tile.rows = blk.rows;
      tile_cfg.tile.cols = blk.cols;
      tile_cfg.seed = ++seed * 0x9e3779b97f4a7c15ULL;
      blk.tile = std::make_unique<CimTile>(tile_cfg);

      util::Matrix sub(blk.cols, blk.rows);
      for (std::size_t o = 0; o < blk.cols; ++o)
        for (std::size_t i = 0; i < blk.rows; ++i)
          sub(o, i) = w_int(c0 + o, r0 + i);
      blk.tile->program_weights(sub);
      tiles_.push_back(std::move(blk));
    }
  }
  for (const auto& blk : tiles_) stats_.area_um2 += blk.tile->area_um2();
}

std::vector<long> CimSystem::vmm_int(std::span<const std::uint32_t> inputs,
                                     int input_bits, util::ThreadPool* pool,
                                     crossbar::FidelityTier tier) {
  if (inputs.size() != in_) throw std::invalid_argument("CimSystem: dim");
  CIM_OBS_SPAN_NAMED(span, "system.vmm_int", obs::Component::kInterconnect);
  std::vector<long> y(out_, 0);

  // Each tile owns its crossbars/RNG, so blocks execute independently; the
  // per-block results land in slots and reduce serially in block order.
  struct BlockResult {
    std::vector<long> part;
    double dt = 0.0;
    double de = 0.0;
  };
  std::vector<BlockResult> results(tiles_.size());
  auto run_block = [&](std::size_t b) {
    auto& blk = tiles_[b];
    const double t0 = blk.tile->stats().time_ns;
    const double e0 = blk.tile->stats().energy_pj;
    results[b].part =
        blk.tile->vmm_int(inputs.subspan(blk.row0, blk.rows), input_bits,
                          tier);
    results[b].dt = blk.tile->stats().time_ns - t0;
    results[b].de = blk.tile->stats().energy_pj - e0;
  };
  if (pool != nullptr)
    pool->parallel_for(0, tiles_.size(), run_block);
  else
    for (std::size_t b = 0; b < tiles_.size(); ++b) run_block(b);

  double worst_tile_time = 0.0;
  double tile_energy = 0.0;
  std::size_t transfers = 0;
  for (std::size_t b = 0; b < tiles_.size(); ++b) {
    const auto& blk = tiles_[b];
    worst_tile_time = std::max(worst_tile_time, results[b].dt);
    tile_energy += results[b].de;
    for (std::size_t c = 0; c < blk.cols; ++c)
      y[blk.col0 + c] += results[b].part[c];
    transfers += blk.cols;
  }

  // Tiles operate in parallel; the reduction tree adds hop latency
  // logarithmic in the number of row-blocks feeding each output.
  const std::size_t row_blocks =
      (in_ + cfg_.tile.tile.rows - 1) / cfg_.tile.tile.rows;
  const double reduce_hops =
      row_blocks > 1 ? std::ceil(std::log2(static_cast<double>(row_blocks))) : 0.0;
  const double move_energy =
      static_cast<double>(transfers) * cfg_.transfer_energy_pj_per_word;

  stats_.time_ns +=
      worst_tile_time + reduce_hops * cfg_.transfer_latency_ns_per_hop;
  stats_.energy_pj += tile_energy + move_energy;
  stats_.movement_energy_pj += move_energy;
  ++stats_.vmm_ops;
  if (obs::enabled()) {
    const double reduce_time = reduce_hops * cfg_.transfer_latency_ns_per_hop;
    obs::attribute(obs::Component::kInterconnect, reduce_time, move_energy);
    span.add_sim_time_ns(worst_tile_time + reduce_time);
    span.add_energy_pj(tile_energy + move_energy);
  }
  return y;
}

CimSystem::RequestLatencyParts CimSystem::request_latency_parts(
    int input_bits) const {
  RequestLatencyParts p;
  for (const auto& blk : tiles_)
    p.bitserial_ns =
        std::max(p.bitserial_ns, blk.tile->vmm_latency_ns(input_bits));
  const std::size_t row_blocks =
      (in_ + cfg_.tile.tile.rows - 1) / cfg_.tile.tile.rows;
  const double reduce_hops =
      row_blocks > 1 ? std::ceil(std::log2(static_cast<double>(row_blocks)))
                     : 0.0;
  p.reduce_ns = reduce_hops * cfg_.transfer_latency_ns_per_hop;
  return p;
}

double CimSystem::request_latency_ns(int input_bits) const {
  const RequestLatencyParts p = request_latency_parts(input_bits);
  return p.bitserial_ns + p.reduce_ns;
}

std::vector<long> CimSystem::ideal_vmm_int(
    std::span<const std::uint32_t> inputs) const {
  if (inputs.size() != in_) throw std::invalid_argument("CimSystem: dim");
  std::vector<long> y(out_, 0);
  for (std::size_t o = 0; o < out_; ++o) {
    long acc = 0;
    for (std::size_t i = 0; i < in_; ++i)
      acc += static_cast<long>(weights_(o, i)) * static_cast<long>(inputs[i]);
    y[o] = acc;
  }
  return y;
}

const CimSystemStats& CimSystem::stats() const { return stats_; }

}  // namespace cim::core
