// Portability study: would the paper's conclusions transfer from Marconi
// A3 (2 x 24-core Skylake, Omni-Path) to a denser machine (2 x 64-core
// EPYC-generation nodes, 200 Gb/s fabric)? The full evaluation grid runs
// on both machine models; the table reports which algorithm wins each cell
// on each machine, and whether the paper's headline conclusions (full load
// cheapest, ScaLAPACK more energy-efficient overall, IMe competitive when
// distributed) survive.
#include <iostream>

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/simulator.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace plin;

struct Cell {
  double t_ime, t_sca, e_ime, e_sca;
};

Cell evaluate(const perfsim::Simulator& simulator,
              const hw::MachineSpec& machine, std::size_t n, int ranks) {
  const hw::Placement placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, machine);
  const auto ime =
      simulator.predict({perfsim::Algorithm::kIme, n, 64}, placement);
  const auto sca =
      simulator.predict({perfsim::Algorithm::kScalapack, n, 64}, placement);
  return Cell{ime.duration_s, sca.duration_s, ime.total_j(), sca.total_j()};
}

}  // namespace

int main() {
  const std::vector<hw::MachineSpec> machines = {hw::marconi_a3(),
                                                 hw::epyc_cluster()};
  std::cout << "Machine portability: the evaluation grid on two machine "
               "models\n\n";

  for (const hw::MachineSpec& machine : machines) {
    const perfsim::Simulator simulator(machine);
    std::cout << "-- " << machine.name << " (" << machine.node.cores()
              << " cores/node, "
              << format_si(machine.node.peak_flops(), "Flop/s") << " peak) --\n";
    TextTable table({"n", "ranks", "faster", "T ratio IMe/SCAL",
                     "lower energy", "E ratio IMe/SCAL"});
    int sca_energy_wins = 0;
    int ime_time_wins = 0;
    for (std::size_t n : hw::kPaperMatrixSizes) {
      for (int ranks : hw::kPaperRankCounts) {
        const Cell cell = evaluate(simulator, machine, n, ranks);
        if (cell.e_sca < cell.e_ime) ++sca_energy_wins;
        if (cell.t_ime < cell.t_sca) ++ime_time_wins;
        table.add_row({std::to_string(n), std::to_string(ranks),
                       cell.t_ime < cell.t_sca ? "IMe" : "ScaLAPACK",
                       format_fixed(cell.t_ime / cell.t_sca, 2),
                       cell.e_ime < cell.e_sca ? "IMe" : "ScaLAPACK",
                       format_fixed(cell.e_ime / cell.e_sca, 2)});
      }
    }
    table.print(std::cout);
    std::cout << "summary: ScaLAPACK is the energy winner in "
              << sca_energy_wins << "/12 cells; IMe is the duration winner "
              << "in " << ime_time_wins << "/12 cells.\n\n";
  }

  std::cout << "== CSV machines ==\n";
  CsvWriter csv(std::cout);
  csv.write_row({"machine", "n", "ranks", "t_ime_s", "t_sca_s", "e_ime_j",
                 "e_sca_j"});
  for (const hw::MachineSpec& machine : machines) {
    const perfsim::Simulator simulator(machine);
    for (std::size_t n : hw::kPaperMatrixSizes) {
      for (int ranks : hw::kPaperRankCounts) {
        const Cell cell = evaluate(simulator, machine, n, ranks);
        csv.write_row({machine.name, std::to_string(n),
                       std::to_string(ranks), format_fixed(cell.t_ime, 6),
                       format_fixed(cell.t_sca, 6),
                       format_fixed(cell.e_ime, 3),
                       format_fixed(cell.e_sca, 3)});
      }
    }
  }
  return 0;
}
