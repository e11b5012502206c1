// Power-cap explorer — the paper's stated next phase (§6): "the
// application of power caps to restrict power consumption during
// execution". Programs RAPL package limits through the papisim powercap
// component and reports how both solvers respond.
//
//   ./powercap_explorer [--n 512] [--ranks 8] [--caps 52,48,44,40]
// (mini-cluster packages hold 4 cores, so nominal package power is ~55 W)
#include <iostream>
#include <sstream>

#include "hwmodel/placement.hpp"
#include "monitor/white_box.hpp"
#include "papisim/papi.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "xmpi/runtime.hpp"

namespace {

std::vector<double> parse_caps(const std::string& text) {
  std::vector<double> caps = {0.0};  // uncapped baseline first
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) caps.push_back(std::stod(token));
  }
  return caps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plin;
  const CliArgs args(argc, argv);
  try {
    args.require_known({"n", "ranks", "caps"});
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 512));
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  const std::vector<double> caps = parse_caps(args.get("caps", "52,48,44,40"));

  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(8, 4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);

  std::cout << "Power capping IMe and ScaLAPACK (n = " << n << ", "
            << config.placement.describe() << ")\n\n";

  for (const bool use_ime : {true, false}) {
    std::cout << "-- " << (use_ime ? "IMe" : "ScaLAPACK") << " --\n";
    TextTable table({"package cap", "duration", "total energy", "avg power"});
    for (const double cap_w : caps) {
      monitor::RunMeasurement measurement;
      xmpi::Runtime::run(config, [&](xmpi::Comm& world) {
        const monitor::RunMeasurement m = monitor::monitored_run(
            world, monitor::MonitorOptions{}, [&](xmpi::Comm& comm) {
              if (cap_w > 0.0) {
                // One rank per node programs both packages, then everyone
                // synchronizes before the solve.
                if (comm.my_location().socket == 0 &&
                    comm.my_location().core == 0) {
                  (void)papisim::set_powercap_limit(
                      "powercap:::POWER_LIMIT_A_UW:ZONE0",
                      static_cast<long long>(cap_w * 1e6));
                  (void)papisim::set_powercap_limit(
                      "powercap:::POWER_LIMIT_A_UW:ZONE1",
                      static_cast<long long>(cap_w * 1e6));
                }
                comm.barrier();
              }
              if (use_ime) {
                solvers::ImepOptions options;
                options.n = n;
                options.seed = 23;
                (void)solve_imep(comm, options);
              } else {
                solvers::PdgesvOptions options;
                options.n = n;
                options.seed = 23;
                options.nb = 32;
                (void)solve_pdgesv(comm, options);
              }
            });
        if (world.rank() == 0) measurement = m;
      });
      table.add_row(
          {cap_w > 0.0 ? format_power(cap_w) : std::string("uncapped"),
           format_duration(measurement.duration_s),
           format_energy(measurement.total_j()),
           format_power(measurement.avg_power_w())});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Lower caps clamp power and stretch duration (DVFS "
               "cube-root law); the sweet\nspot depends on the workload's "
               "compute intensity.\n";
  return 0;
}
