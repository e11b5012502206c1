// Bring-your-own-solver walkthrough: the monitoring framework is
// solver-agnostic, so a downstream user can profile any algorithm that
// runs on an xmpi communicator. Here an iterative Jacobi solver joins the
// paper's two direct methods, exposing a trade-off the paper's evaluation
// can't see: an iterative method's energy bill scales with the requested
// accuracy.
//
//   ./custom_solver_energy [--n 512] [--ranks 16]
#include <cstdio>
#include <iostream>

#include "hwmodel/placement.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "monitor/white_box.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "solvers/jacobi/jacobi.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "xmpi/runtime.hpp"

int main(int argc, char** argv) {
  using namespace plin;
  const CliArgs args(argc, argv);
  try {
    args.require_known({"n", "ranks"});
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 512));
  const int ranks = static_cast<int>(args.get_int("ranks", 16));
  const std::uint64_t seed = 61;

  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(8, 4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);

  const linalg::Matrix a = linalg::generate_system_matrix(seed, n);
  const linalg::Matrix a_weak = linalg::generate_weak_system_matrix(seed, n, 1.15);
  const std::vector<double> b = linalg::generate_rhs(seed, n);

  std::cout << "Energy profile of three solvers under the same white-box "
               "monitor (n = " << n << ", " << ranks << " ranks)\n\n";
  TextTable table({"solver", "duration", "energy", "power",
                   "scaled residual", "notes"});

  const auto profile = [&](const std::string& name,
                           const linalg::Matrix& system,
                           const std::function<void(xmpi::Comm&,
                                                    std::vector<double>&)>&
                               solver,
                           const std::function<std::string()>& notes) {
    std::vector<double> x;
    monitor::RunMeasurement measurement;
    xmpi::Runtime::run(config, [&](xmpi::Comm& world) {
      const monitor::RunMeasurement m = monitor::monitored_run(
          world, monitor::MonitorOptions{},
          [&](xmpi::Comm& comm) { solver(comm, x); });
      if (world.rank() == 0) measurement = m;
    });
    table.add_row({name, format_duration(measurement.duration_s),
                   format_energy(measurement.total_j()),
                   format_power(measurement.avg_power_w()),
                   format_fixed(
                       linalg::scaled_residual(system.view(), x, b) / 1e-16,
                       2) +
                       "e-16",
                   notes()});
  };

  profile("IMe (direct)", a,
          [&](xmpi::Comm& comm, std::vector<double>& x) {
            solvers::ImepOptions options;
            options.n = n;
            options.seed = seed;
            x = solve_imep(comm, options).x;
          },
          [] { return std::string("exact"); });
  profile("ScaLAPACK LU (direct)", a,
          [&](xmpi::Comm& comm, std::vector<double>& x) {
            solvers::PdgesvOptions options;
            options.n = n;
            options.seed = seed;
            options.nb = 32;
            x = solve_pdgesv(comm, options).x;
          },
          [] { return std::string("exact"); });
  for (const double tol : {1e-4, 1e-8, 1e-12}) {
    int iterations = 0;
    char label[32];
    std::snprintf(label, sizeof(label), "Jacobi tol=%.0e", tol);
    profile(label, a_weak,
            [&](xmpi::Comm& comm, std::vector<double>& x) {
              solvers::JacobiOptions options;
              options.n = n;
              options.seed = seed;
              options.tolerance = tol;
              // A weakly dominant system (ratio 1.15) so the iteration
              // count — and the energy bill — responds to the tolerance.
              options.dominance = 1.15;
              const solvers::JacobiResult result =
                  solve_pjacobi(comm, options);
              x = result.x;
              iterations = result.iterations;
            },
            [&iterations] {
              return std::to_string(iterations) + " iterations";
            });
  }
  table.print(std::cout);
  std::cout << "\nIterative energy scales with the requested accuracy; the "
               "direct solvers pay a\nfixed bill. Any solver can join this "
               "table: monitor::monitored_run takes an\narbitrary "
               "workload.\n";
  return 0;
}
