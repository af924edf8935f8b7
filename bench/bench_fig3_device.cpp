/// \file bench_fig3_device.cpp
/// \brief Regenerates **Fig. 3** — the two-region ReRAM device: programmable
///        resistance via filament (doping-front) motion. Reports the SET /
///        RESET trajectories, the pinched-hysteresis sweep, and the
///        multi-level quantization with guard bands the cell model builds
///        on ("the resistance value is typically quantized into N levels").
#include <iostream>

#include "bench_common.hpp"
#include "device/memristor.hpp"
#include "device/reram_cell.hpp"
#include "obs/dataset.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  // --- SET / RESET switching dynamics --------------------------------------
  {
    util::Table t({"pulse #", "V (V)", "state w", "R (kOhm)", "I (uA)"});
    t.set_title("Fig. 3 — filament motion under SET then RESET pulses");
    device::Memristor dev({.mobility = 5e-2, .w_init = 0.05});
    int pulse = 0;
    for (int k = 0; k < 5; ++k) {
      const double i = dev.apply_voltage(+1.5, 50.0);
      t.add_row({std::to_string(++pulse), "+1.5",
                 util::Table::num(dev.state(), 3),
                 util::Table::num(dev.resistance_kohm(), 2),
                 util::Table::num(i, 1)});
    }
    for (int k = 0; k < 5; ++k) {
      const double i = dev.apply_voltage(-1.5, 50.0);
      t.add_row({std::to_string(++pulse), "-1.5",
                 util::Table::num(dev.state(), 3),
                 util::Table::num(dev.resistance_kohm(), 2),
                 util::Table::num(i, 1)});
    }
    t.print(std::cout);
  }

  // --- pinched hysteresis ---------------------------------------------------
  {
    device::Memristor dev({.mobility = 5e-2, .w_init = 0.1});
    const auto trace = dev.sweep_sinusoid(1.5, 2000.0, 64);
    util::Table t({"t (ns)", "V (V)", "I (uA)", "w"});
    t.set_title("Fig. 3 — sinusoidal sweep (pinched hysteresis, every 8th point)");
    for (std::size_t k = 0; k < trace.size(); k += 8) {
      const auto& p = trace[k];
      t.add_row({util::Table::num(p.time_ns, 0), util::Table::num(p.voltage_v, 2),
                 util::Table::num(p.current_ua, 1),
                 util::Table::num(p.state_w, 3)});
    }
    t.print(std::cout);
  }

  // --- multi-level quantization with guard bands ----------------------------
  {
    const auto tech = device::technology_params(device::Technology::kReRamHfOx);
    util::Rng rng(7);
    util::Table t({"level", "nominal G (uS)", "programmed mean (uS)",
                   "programmed sd (uS)", "within guard band"});
    t.set_title("Fig. 3 — 16-level quantization (program-and-verify, 200 writes/level)");
    for (int lvl = 0; lvl < 16; lvl += 3) {
      obs::StreamStat stats;
      int in_band = 0;
      const int trials = 200;
      for (int k = 0; k < trials; ++k) {
        device::ReRamCell cell(tech, 16, rng);
        const auto res = cell.write_level(lvl, rng, /*verify=*/true);
        stats.add(cell.true_conductance_us());
        if (res.success) ++in_band;
      }
      device::LevelScheme sch(16, tech.g_off_us(), tech.g_on_us());
      t.add_row({std::to_string(lvl),
                 util::Table::num(sch.level_conductance_us(lvl), 2),
                 util::Table::num(stats.mean, 2),
                 util::Table::num(stats.stddev(), 2),
                 util::Table::num(100.0 * in_band / trials, 1) + "%"});
    }
    t.print(std::cout);
  }
  std::cout << "shape check: positive pulses move w up (R down), negative "
               "reverse it;\ncurrent pinches at V=0; verified writes land "
               "inside the guard band.\n";
  bench::report("bench_fig3_device", total.elapsed_ms(), 1200.0);
  return 0;
}
