// Sensitivity ablation for the calibrated model knobs EXPERIMENTS.md
// documents: how the IMe-vs-ScaLAPACK crossover and the energy gap move
// when the interconnect latency, the IMe flop coefficient (via an
// effective-throughput proxy) and the socket memory bandwidth change.
// This is the "which assumptions carry the result" audit for the replay
// tier.
#include <iostream>

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/simulator.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace plin;

struct CellResult {
  double t_ime, t_sca, e_ime, e_sca;
};

CellResult evaluate(const hw::MachineSpec& machine, std::size_t n,
                    int ranks) {
  const perfsim::Simulator simulator(machine);
  const hw::Placement placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, machine);
  const perfsim::Prediction ime =
      simulator.predict({perfsim::Algorithm::kIme, n, 64}, placement);
  const perfsim::Prediction sca =
      simulator.predict({perfsim::Algorithm::kScalapack, n, 64}, placement);
  return CellResult{ime.duration_s, sca.duration_s, ime.total_j(),
                    sca.total_j()};
}

void sweep(std::ostream& os, const std::string& knob,
           const std::vector<std::pair<std::string, hw::MachineSpec>>&
               variants) {
  os << "-- knob: " << knob << " (cell: n=17280, 576 ranks, full load) --\n";
  TextTable table({"variant", "IMe time", "SCAL time", "T ratio",
                   "IMe energy", "SCAL energy", "E ratio"});
  for (const auto& [name, machine] : variants) {
    const CellResult cell = evaluate(machine, 17280, 576);
    table.add_row({name, format_duration(cell.t_ime),
                   format_duration(cell.t_sca),
                   format_fixed(cell.t_ime / cell.t_sca, 2),
                   format_energy(cell.e_ime), format_energy(cell.e_sca),
                   format_fixed(cell.e_ime / cell.e_sca, 2)});
  }
  table.print(os);
  os << "\n";
}

}  // namespace

int main() {
  std::cout << "Model sensitivity ablation (replay tier)\n\n";

  // 1) Interconnect latency: LU pays a pivot-latency chain per column,
  //    IMe pays one resync per level — latency moves the crossover.
  {
    std::vector<std::pair<std::string, hw::MachineSpec>> variants;
    for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
      hw::MachineSpec machine = hw::marconi_a3();
      machine.network.internode_latency_s *= scale;
      machine.network.intersocket_latency_s *= scale;
      machine.network.intrasocket_latency_s *= scale;
      variants.emplace_back(std::string("latency x") + format_fixed(scale, 1),
                            machine);
    }
    sweep(std::cout, "interconnect latency", variants);
  }

  // 2) Socket memory bandwidth: IMe's table streaming and payload
  //    ingestion are bandwidth-bound; LU's GEMM is not.
  {
    std::vector<std::pair<std::string, hw::MachineSpec>> variants;
    for (const double scale : {0.5, 1.0, 2.0}) {
      hw::MachineSpec machine = hw::marconi_a3();
      machine.node.socket.dram_bandwidth_bs *= scale;
      variants.emplace_back(
          std::string("bandwidth x") + format_fixed(scale, 1), machine);
    }
    sweep(std::cout, "socket DRAM bandwidth", variants);
  }

  // 3) Core clock (throughput proxy for the IMe flop-coefficient debate:
  //    halving effective throughput is equivalent to doubling the charged
  //    flops).
  {
    std::vector<std::pair<std::string, hw::MachineSpec>> variants;
    for (const double scale : {0.75, 1.0, 1.5}) {
      hw::MachineSpec machine = hw::marconi_a3();
      machine.node.socket.core.clock_ghz *= scale;
      variants.emplace_back(std::string("clock x") + format_fixed(scale, 2),
                            machine);
    }
    sweep(std::cout, "core throughput", variants);
  }

  // 4) Where does the crossover sit as latency scales? Scan the full grid.
  std::cout << "-- IMe-faster cells vs latency scale --\n";
  TextTable table({"latency scale", "IMe wins at (n, ranks)"});
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    hw::MachineSpec machine = hw::marconi_a3();
    machine.network.internode_latency_s *= scale;
    machine.network.intersocket_latency_s *= scale;
    machine.network.intrasocket_latency_s *= scale;
    std::string wins;
    for (std::size_t n : hw::kPaperMatrixSizes) {
      for (int ranks : hw::kPaperRankCounts) {
        const CellResult cell = evaluate(machine, n, ranks);
        if (cell.t_ime < cell.t_sca) {
          if (!wins.empty()) wins += ", ";
          wins += std::string("(") + std::to_string(n) + "," +
                  std::to_string(ranks) + ")";
        }
      }
    }
    table.add_row({std::string("x") + format_fixed(scale, 1),
                   wins.empty() ? "none" : wins});
  }
  table.print(std::cout);
  std::cout << "\nHigher latency favours IMe (its pipelined levels amortize "
               "latency; LU's\nper-column pivot chain cannot) — consistent "
               "with the paper finding IMe\ncompetitive on a real, noisier "
               "interconnect.\n";
  return 0;
}
