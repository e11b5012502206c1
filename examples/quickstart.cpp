// Quickstart: solve one linear system with both parallel solvers on the
// simulated cluster, check the solutions, and read the energy bill.
//
//   ./quickstart [--n 384] [--ranks 8] [--seed 42]
#include <iostream>
#include <utility>
#include <vector>

#include "hwmodel/placement.hpp"
#include "linalg/generate.hpp"
#include "monitor/white_box.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "xmpi/runtime.hpp"

int main(int argc, char** argv) {
  using namespace plin;
  const CliArgs args(argc, argv);
  try {
    args.require_known({"n", "ranks", "seed"});
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 384));
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));

  // A simulated mini-cluster: nodes with 2 sockets x 4 cores, same power
  // and network models as the Marconi A3 description.
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/8, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);

  std::cout << "Solving a " << n << "x" << n << " system on "
            << config.placement.describe() << "\n\n";

  // Reference right-hand side for the residual check; the residual streams
  // the generated system row by row instead of materializing it.
  const std::vector<double> b = linalg::generate_rhs(seed, n);

  TextTable table({"solver", "duration (virtual)", "PKG energy",
                   "DRAM energy", "avg power", "scaled residual"});

  for (const bool use_ime : {true, false}) {
    std::vector<double> x;
    monitor::RunMeasurement measurement;
    xmpi::Runtime::run(config, [&](xmpi::Comm& world) {
      const monitor::RunMeasurement m = monitor::monitored_run(
          world, monitor::MonitorOptions{}, [&](xmpi::Comm& comm) {
            // Ranks run on several host threads: only rank 0 writes x.
            std::vector<double> mine;
            if (use_ime) {
              solvers::ImepOptions options;
              options.n = n;
              options.seed = seed;
              mine = solve_imep(comm, options).x;
            } else {
              solvers::PdgesvOptions options;
              options.n = n;
              options.seed = seed;
              mine = solve_pdgesv(comm, options).x;
            }
            if (comm.rank() == 0) x = std::move(mine);
          });
      if (world.rank() == 0) measurement = m;
    });
    table.add_row({use_ime ? "IMe (Inhibition Method)" : "ScaLAPACK LU",
                   format_duration(measurement.duration_s),
                   format_energy(measurement.total_pkg_j()),
                   format_energy(measurement.total_dram_j()),
                   format_power(measurement.avg_power_w()),
                   format_fixed(
                       linalg::generated_residual(seed, n, x, b) / 1e-16, 2) +
                       "e-16"});
  }
  table.print(std::cout);
  std::cout << "\nBoth solvers produce the same solution; the energy "
               "profile is what differs.\n";
  return 0;
}
