/// \file logic_flow.cpp
/// \brief The Fig. 8 EDA flow end to end: take a Boolean specification,
///        synthesize it (netlist -> AIG -> MIG / NOR basis), map it onto
///        each ReRAM stateful-logic family, execute the mapped programs on
///        the crossbar simulator and verify them against the truth table.
#include <iostream>

#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/wear_cost.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  // Specification: a 3-bit ripple-carry adder.
  const auto circuit = eda::ripple_carry_adder(3);
  std::cout << "circuit: 3-bit ripple-carry adder, "
            << circuit.num_inputs() << " inputs, " << circuit.num_outputs()
            << " outputs, " << circuit.gate_count() << " gates, depth "
            << circuit.depth() << "\n\n";

  // Phase 1-2: synthesis.
  const auto aig = eda::Aig::from_netlist(circuit);
  const auto mig = eda::Mig::from_aig(aig);
  std::cout << "AIG: " << aig.num_ands() << " ANDs, depth " << aig.depth()
            << " | MIG: " << mig.num_majs() << " MAJs, depth " << mig.depth()
            << "\n\n";

  // Phase 3: map to each logic family and check each program against its
  // source on every input assignment.
  util::Table t({"family", "devices", "delay (steps)", "ADP", "verified"});
  t.set_title("technology mapping of rca3 onto the three logic families");
  eda::verify::CheckOptions check;
  check.match_source = true;
  const auto verdict = [&](const auto& prog, const auto& source) {
    return eda::verify::check_program(prog, &source, check).verified ? "yes"
                                                                     : "NO";
  };

  {
    const auto prog = eda::compile_imply(aig, /*reuse_cells=*/true);
    t.add_row({"IMPLY", std::to_string(prog.num_cells),
               std::to_string(prog.delay()),
               std::to_string(prog.num_cells * prog.delay()),
               verdict(prog, aig)});
  }
  {
    const auto sched = eda::schedule_revamp(mig);
    t.add_row({"Majority (ReVAMP)", std::to_string(sched.device_count),
               std::to_string(sched.delay()) + " (lb " +
                   std::to_string(sched.delay_lower_bound()) + ")",
               std::to_string(sched.device_count * sched.delay()),
               verdict(eda::assemble_revamp(mig, sched), mig)});
  }
  {
    const auto nor = aig.to_netlist().to_nor_only();
    const auto prog = eda::compile_magic(nor, /*reuse_cells=*/true);
    t.add_row({"MAGIC", std::to_string(prog.num_cells),
               std::to_string(prog.delay()),
               std::to_string(prog.num_cells * prog.delay()),
               verdict(prog, nor)});
  }
  t.print(std::cout);

  // Bonus: watch one MAGIC execution on a crossbar row, adding 5 + 3.
  const auto nor = aig.to_netlist().to_nor_only();
  const auto prog = eda::compile_magic(nor, true);
  crossbar::CrossbarConfig cfg;
  cfg.rows = 1;
  cfg.cols = prog.num_cells;
  cfg.tech = device::Technology::kSttMram;
  cfg.levels = 2;
  crossbar::Crossbar xbar(cfg);
  // Inputs: a=5 (101), b=3 (011), cin=0 -> packed per netlist input order.
  const std::uint64_t assignment = 5ull | (3ull << 3) | (0ull << 6);
  const auto out = eda::execute_magic(xbar, prog, assignment);
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < out.size(); ++k)
    sum |= static_cast<std::uint64_t>(out[k]) << k;
  std::cout << "\nMAGIC crossbar computes 5 + 3 = " << (sum & 0xF)
            << " using " << prog.num_cells << " devices and "
            << prog.delay() << " cycles; array spent "
            << xbar.stats().energy_pj << " pJ\n";
  return 0;
}
