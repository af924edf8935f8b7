/// \file cim_system.hpp
/// \brief Multi-tile CIM accelerator: partitions large matrices across
///        tiles, aggregates partial sums digitally, and reports end-to-end
///        time/energy/area — the system-level view the architecture
///        comparison (Table I / Fig. 1 benches) executes against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/arch_class.hpp"
#include "core/cim_tile.hpp"
#include "eda/verify/hazard.hpp"
#include "util/matrix.hpp"
#include "util/thread_pool.hpp"

namespace cim::core {

/// System configuration: tile template + aggregation costs.
struct CimSystemConfig {
  CimTileConfig tile{};
  /// Energy to move one partial-sum word between tiles and the reduction
  /// tree (on-chip interconnect).
  double transfer_energy_pj_per_word = 0.8;
  double transfer_latency_ns_per_hop = 0.5;
};

/// Aggregated execution report.
struct CimSystemStats {
  std::uint64_t vmm_ops = 0;
  double time_ns = 0.0;
  double energy_pj = 0.0;
  double movement_energy_pj = 0.0;  ///< inter-tile partial-sum movement
  double area_um2 = 0.0;
};

/// A grid of CIM tiles implementing one large signed-integer matrix.
class CimSystem {
 public:
  /// `w_int` is (out x in); the system instantiates ceil(in/tile_rows) x
  /// ceil(out/tile_cols) tiles and programs the blocks.
  CimSystem(const util::Matrix& w_int, CimSystemConfig cfg);

  std::size_t in_dim() const { return in_; }
  std::size_t out_dim() const { return out_; }
  std::size_t tile_count() const { return tiles_.size(); }

  /// The tile executing block `i` (block order). Exposed for health
  /// consumers — wear/drift-aware routing reads the tiles' array monitors.
  CimTile& tile(std::size_t i) { return *tiles_.at(i).tile; }
  const CimTile& tile(std::size_t i) const { return *tiles_.at(i).tile; }

  /// y = W x over the tile grid, with digital partial-sum reduction. Only
  /// the low `input_bits` bits of each input are read (CimTile::vmm_int).
  /// Independent tiles execute concurrently on `pool` (serial when null);
  /// every tile owns its crossbars and RNG streams, and the partial-sum
  /// reduction runs serially in block order, so results are bit-identical
  /// for any thread count.
  std::vector<long> vmm_int(
      std::span<const std::uint32_t> inputs, int input_bits,
      util::ThreadPool* pool = nullptr,
      crossbar::FidelityTier tier = crossbar::FidelityTier::kFull);

  /// Simulated service latency of one vmm_int of `input_bits` bits (ns):
  /// the slowest tile's bit-serial time plus the reduction-tree hops. Data
  /// independent and an exact closed form of the per-call stats().time_ns
  /// increment — what the serving controller schedules against without
  /// executing the request.
  double request_latency_ns(int input_bits) const;

  /// The two physical phases of request_latency_ns, split for per-request
  /// latency decomposition: the slowest tile's bit-serial array+ADC time
  /// and the digital reduction-tree transfer time. Invariant:
  /// `bitserial_ns + reduce_ns == request_latency_ns(bits)` bitwise (the
  /// total is computed as exactly that sum).
  struct RequestLatencyParts {
    double bitserial_ns = 0.0;
    double reduce_ns = 0.0;
  };
  RequestLatencyParts request_latency_parts(int input_bits) const;

  /// Exact oracle.
  std::vector<long> ideal_vmm_int(std::span<const std::uint32_t> inputs) const;

  const CimSystemStats& stats() const;

  /// The system's tile resources as a static-analysis pool: one entry per
  /// block (its array geometry and physical ADC channel count), in block
  /// order. Micro-op schedules dispatched across the system are checked
  /// against this pool with `eda::verify::analyze_hazards`.
  eda::verify::TilePool hazard_tile_pool() const;

  /// The Fig. 2 class this system realizes (analog compute in the array,
  /// result produced at the periphery ADCs -> CIM-P).
  static arch::ArchClass arch_class() { return arch::ArchClass::kCimPeriphery; }

 private:
  struct Block {
    std::unique_ptr<CimTile> tile;
    std::size_t row0 = 0;  ///< input offset
    std::size_t col0 = 0;  ///< output offset
    std::size_t rows = 0;
    std::size_t cols = 0;
  };

  std::size_t in_;
  std::size_t out_;
  CimSystemConfig cfg_;
  util::Matrix weights_;
  std::vector<Block> tiles_;
  mutable CimSystemStats stats_;
};

}  // namespace cim::core
