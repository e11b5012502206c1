// powerlin_run — command-line driver for energy profiling runs.
//
//   powerlin_run --tier numeric --algorithm ime --n 512 --ranks 16
//   powerlin_run --tier replay  --algorithm scalapack --n 34560 --ranks 1296
//   powerlin_run --campaign manifests/ci_smoke.plc --store campaign_store
//
// Run `powerlin_run --help` for the full flag reference. Unknown flags are
// rejected (a mistyped manifest or flag fails loudly instead of being
// silently ignored).
#include <iostream>

#include "batch/campaign.hpp"
#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "monitor/campaign.hpp"
#include "perfsim/simulator.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "support/version.hpp"

namespace {

using namespace plin;

constexpr const char* kUsage = R"(powerlin_run — energy profiling driver

One-off modes:
  --tier       numeric (execute on xmpi, default) | replay (perfsim)
  --algorithm  ime (default) | scalapack | cg
  --n          matrix dimension (default 512 numeric / 17280 replay)
  --ranks      MPI ranks (default 16 numeric / 576 replay)
  --layout     full (default) | half1 | half2
  --nb         ScaLAPACK block size (default 64 replay; 32 numeric)
  --seed       generator seed (default 1)
  --reps       numeric repetitions (default 1)
  --precision  fp64 (default) | mixed (fp32 factorization + fp64 iterative
               refinement; scalapack only — docs/mixed_precision.md; the
               replay tier prices it with the refinement-iteration model)
  --tol        CG relative-residual tolerance (default 1e-11)
  --matrix     CG sparse family: stencil5 (default) | stencil9 | stencil27 |
               banded | random | blockdiag (docs/sparse.md)
  --precond    CG preconditioner: none (default) | jacobi (diagonal)
  --out        directory for per-processor monitor files (numeric)
  --trace-dir  archive the span-trace bundle of the run into this directory
               (numeric tier; first repetition only — docs/tracing.md)

Campaign mode (batch orchestrator, docs/campaign.md):
  --campaign   path to a campaign manifest; runs the whole grid through the
               job queue with the content-addressed result store, skipping
               every job already journaled (resume = re-run same command)
  --store      result store directory (default campaign_store)
  --workers    override the manifest's host worker count
  --max-jobs   execute at most N jobs this invocation, then stop (the
               deterministic interrupt used to test resumability)
  --trace-dir  archive one span-trace bundle per numeric job under
               <trace-dir>/<job key>/ (docs/tracing.md)

  --version    print the release version and exit
  --help       this text
)";

/// The one-off job the flags describe. The flag defaults differ from the
/// JobSpec ones: a paper-scale Marconi point on the replay tier, a 16-rank
/// mini-cluster point on the numeric tier.
monitor::JobSpec spec_from_flags(const CliArgs& args) {
  monitor::JobSpec spec;
  const auto set = [&](const monitor::Axis& axis, const std::string& token) {
    try {
      axis.codec.parse(spec, token);
    } catch (const InvalidArgument& e) {
      throw InvalidArgument(std::string("--") + axis.flag + ": " + e.what());
    }
  };
  set(*monitor::find_axis("tier"), args.get("tier", "numeric"));
  if (spec.tier == monitor::Tier::kReplay) {
    spec.machine = "marconi";
    spec.n = 17280;
    spec.ranks = 576;
    spec.nb = 64;
  } else {
    spec.machine = "mini:32x4";
    spec.n = 512;
    spec.ranks = 16;
  }
  // Table order parses --algorithm first; a flag whose field the algorithm
  // does not carry (--matrix or --tol for ime) is not part of the job.
  for (const monitor::Axis& axis : monitor::axes()) {
    if (axis.flag != nullptr && args.has(axis.flag) &&
        axis.applies_to(spec.algorithm)) {
      set(axis, args.get(axis.flag, ""));
    }
  }
  monitor::validate(spec);
  return spec;
}

int run_replay(const monitor::JobSpec& spec) {
  const hw::MachineSpec machine = batch::machine_from_name(spec.machine);
  const hw::Placement placement =
      hw::make_placement(spec.ranks, spec.layout, machine);
  const perfsim::Simulator simulator(machine);
  const perfsim::Prediction p = simulator.predict(spec.workload(), placement);

  std::cout << "Replay-tier prediction on " << machine.name << ": "
            << perfsim::to_string(spec.algorithm) << " ("
            << perfsim::to_string(spec.precision) << "), n=" << spec.n
            << ", " << placement.describe() << "\n\n";
  TextTable table({"metric", "value"});
  table.add_row({"duration", format_duration(p.duration_s)});
  table.add_row({"PKG energy (socket 0)", format_energy(p.pkg_j[0])});
  table.add_row({"PKG energy (socket 1)", format_energy(p.pkg_j[1])});
  table.add_row({"DRAM energy (socket 0)", format_energy(p.dram_j[0])});
  table.add_row({"DRAM energy (socket 1)", format_energy(p.dram_j[1])});
  table.add_row({"total energy", format_energy(p.total_j())});
  table.add_row({"average power", format_power(p.avg_power_w())});
  table.add_row({"DRAM power", format_power(p.dram_power_w())});
  table.add_row({"critical-path compute", format_duration(p.compute_s)});
  table.add_row({"critical-path comm", format_duration(p.comm_s)});
  table.print(std::cout);
  return 0;
}

int run_numeric(const CliArgs& args, const monitor::JobSpec& spec) {
  const hw::MachineSpec machine = batch::machine_from_name(spec.machine);
  monitor::MonitorOptions options;
  options.output_dir = args.get("out", "");
  options.trace_dir = args.get("trace-dir", "");

  const monitor::JobResult result =
      monitor::run_job(machine, spec, options);
  const std::vector<monitor::JobResult> jobs = {result};
  monitor::print_campaign_table(std::cout, jobs);
  return 0;
}

int run_campaign_mode(const CliArgs& args) {
  const batch::CampaignManifest manifest =
      batch::load_manifest_file(args.get("campaign", ""));
  batch::CampaignOptions options;
  options.store_dir = args.get("store", "campaign_store");
  options.workers = static_cast<int>(args.get_int("workers", 0));
  const long max_jobs = args.get_int("max-jobs", -1);
  if (max_jobs >= 0) {
    options.max_jobs = static_cast<std::size_t>(max_jobs);
  }
  options.trace_dir = args.get("trace-dir", "");

  const batch::CampaignResult result = batch::run_campaign(manifest, options);

  std::cout << "Campaign '" << manifest.name << "': "
            << result.outcome.executed << " executed, "
            << result.outcome.cached << " cached, "
            << result.outcome.failures.size() << " failed, "
            << result.outcome.stopped << " stopped ("
            << result.records.size() << "/"
            << (result.records.size() + result.missing)
            << " jobs in store)\n"
            << "Store cache: " << result.store_stats.hits << " hits, "
            << result.store_stats.misses << " misses, "
            << result.store_stats.inserts << " inserts this invocation\n\n";
  batch::print_report_table(std::cout, result.records);
  if (!result.csv_path.empty()) {
    std::cout << "\nReports: " << result.csv_path << ", "
              << result.markdown_path << "\n";
  }
  for (const batch::JobFailure& failure : result.outcome.failures) {
    std::cerr << "failed after " << failure.attempts << " attempt(s): "
              << failure.spec.describe() << ": " << failure.error << "\n";
  }
  if (!result.outcome.failures.empty()) return 1;
  return result.outcome.stopped > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  try {
    args.require_known({"tier", "algorithm", "n", "ranks", "layout", "nb",
                        "seed", "reps", "precision", "tol", "matrix",
                        "precond", "out", "campaign", "store", "workers",
                        "max-jobs", "trace-dir", "version", "help"});
    if (args.get_bool("help", false)) {
      std::cout << kUsage;
      return 0;
    }
    if (args.get_bool("version", false)) {
      std::cout << "powerlin_run " << plin::kVersion << "\n";
      return 0;
    }
    if (args.has("campaign")) return run_campaign_mode(args);
    const monitor::JobSpec spec = spec_from_flags(args);
    return spec.tier == monitor::Tier::kReplay ? run_replay(spec)
                                               : run_numeric(args, spec);
  } catch (const plin::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
