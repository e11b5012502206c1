// White-box integration walkthrough — how a user instruments their own
// MPI-style program with the monitoring framework, following the paper's
// Figure 2 step by step (split_type, monitoring-rank election, barriers,
// start/stop, per-processor files). This is the "manual" version of what
// monitor::monitored_run packages up.
//
//   ./monitored_solver [--n 448] [--ranks 16] [--out monitor_out]
#include <iostream>

#include "hwmodel/placement.hpp"
#include "monitor/monitoring.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/units.hpp"
#include "xmpi/runtime.hpp"

int main(int argc, char** argv) {
  using namespace plin;
  const CliArgs args(argc, argv);
  try {
    args.require_known({"n", "ranks", "out"});
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 448));
  const int ranks = static_cast<int>(args.get_int("ranks", 16));
  const std::string out_dir = args.get("out", "monitor_out");

  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(8, 4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);

  std::cout << "White-box monitored LU solve, step by step (n = " << n
            << ", " << config.placement.describe() << ")\n";

  xmpi::Runtime::run(config, [&](xmpi::Comm& world) {
    // (1) After MPI_Init: group the ranks of each node with
    //     MPI_Comm_split_type(MPI_COMM_TYPE_SHARED).
    xmpi::Comm node_comm = world.split_shared_node();

    // (2) The highest rank in each node communicator is the monitoring
    //     rank.
    const bool monitoring = node_comm.rank() == node_comm.size() - 1;
    if (monitoring) {
      PLIN_LOG_INFO << "world rank " << world.rank()
                    << " monitors node " << world.my_node();
    }

    // (3) Node-level barrier, then the monitoring ranks initialize PAPI
    //     and start the powercap counters.
    monitor::MonitoringSession session;
    node_comm.barrier();
    if (monitoring) session.start(world, "powercap");

    // (4) World-level barrier aligning everyone for the solver phase.
    world.barrier();

    // (5) Every rank runs its part of the linear system solver.
    solvers::PdgesvOptions options;
    options.n = n;
    options.seed = 5;
    options.nb = 32;
    (void)solve_pdgesv(world, options);

    // (6) Node-level barrier: the monitoring rank stops counting only
    //     after every rank of its node finished.
    node_comm.barrier();
    if (monitoring) {
      session.stop(world);
      monitor::write_processor_file(out_dir, world.my_node(), session);
      PLIN_LOG_INFO << "node " << world.my_node() << ": "
                    << format_energy(session.total_pkg_j()) << " PKG + "
                    << format_energy(session.total_dram_j()) << " DRAM in "
                    << format_duration(session.duration_s());
      session.terminate();
    }

    // (7) Final world barrier before MPI_Finalize.
    world.barrier();
  });

  std::cout << "Per-processor result files are in " << out_dir
            << "/ (one per node, human-readable).\n";
  return 0;
}
