/// \file tile_accelerator.cpp
/// \brief The `core` public API end to end: quantize a trained network,
///        partition it across CIM tiles, run digital-in/digital-out
///        inference through the full DAC -> crossbar -> ADC -> shift-add
///        path, and inspect one tile's cycle and energy counters.
#include <iostream>

#include "core/quantized_mlp.hpp"
#include "core/cim_tile.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  // 1. Train (software) and quantize to INT4 weights / INT4 activations.
  util::Rng rng(3);
  const auto train = nn::generate_digits(500, rng, 0.1);
  const auto test = nn::generate_digits(150, rng, 0.1);
  nn::Mlp net({nn::kPixels, 16, nn::kClasses}, rng);
  net.fit(train, 40, 0.05, rng);
  const auto q = core::QuantizedMlp::from_mlp(net, /*weight_bits=*/4,
                                              /*act_bits=*/4, train);
  std::cout << "float accuracy:          " << net.accuracy(test) << "\n"
            << "INT4 reference accuracy: " << q.accuracy_reference(test)
            << "\n";

  // 2. Build the accelerator: 32x16 tiles, 8-bit shared SAR ADCs.
  core::CimSystemConfig cfg;
  cfg.tile.tile.rows = 32;
  cfg.tile.tile.cols = 16;
  cfg.tile.tile.adc_bits = 8;
  cfg.tile.tile.adcs = 2;
  cfg.tile.array.model_ir_drop = false;
  cfg.tile.seed = 7;
  core::CimMlpRunner runner(q, cfg);

  // 3. Inference through the tiles.
  const double acc = runner.accuracy(test);
  const auto totals = runner.totals();
  util::Table t({"metric", "value"});
  t.set_title("tile accelerator — INT4 digit MLP");
  t.add_row({"tile accuracy", util::Table::num(acc, 3)});
  t.add_row({"tiles", std::to_string(totals.tiles)});
  t.add_row({"energy / inference (pJ)",
             util::Table::num(totals.energy_pj / double(test.size()), 1)});
  t.add_row({"latency / inference (ns)",
             util::Table::num(totals.time_ns / double(test.size()), 1)});
  t.add_row({"total area (um^2)", util::Table::num(totals.area_um2, 0)});
  t.print(std::cout);

  // 4. Peek at a single tile's bit-serial cycle and energy counters.
  core::CimTileConfig tcfg;
  tcfg.tile.rows = 16;
  tcfg.tile.cols = 8;
  tcfg.array.model_ir_drop = false;
  core::CimTile tile(tcfg);
  util::Matrix w(8, 16, 0.0);
  for (std::size_t i = 0; i < 8; ++i) w(i, i) = 3.0;
  tile.program_weights(w);
  std::vector<std::uint32_t> x(16, 5);
  (void)tile.vmm_int(x, 4);
  const core::CimTileStats& s = tile.stats();
  std::cout << "\none 4-bit VMM on a 16x8 tile: " << s.cycles << " cycles, "
            << s.time_ns << " ns, " << s.energy_pj << " pJ (array "
            << s.array_energy_pj << ", ADC " << s.adc_energy_pj << ", DAC "
            << s.dac_energy_pj << ", shift-add " << s.digital_energy_pj
            << ")\n";
  return 0;
}
