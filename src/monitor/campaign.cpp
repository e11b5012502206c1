#include "monitor/campaign.hpp"

#include <algorithm>
#include <utility>

#include "linalg/generate.hpp"
#include "papisim/papi.hpp"
#include "solvers/cg/cg.hpp"
#include "solvers/gepp/mixed.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "xmpi/runtime.hpp"

namespace plin::monitor {
namespace {

/// Folds one per-repetition quantity through the shared statistics helper.
template <typename Get>
SampleStats repetition_stats(const std::vector<RepetitionResult>& reps,
                             Get&& get) {
  std::vector<double> samples;
  samples.reserve(reps.size());
  for (const RepetitionResult& rep : reps) samples.push_back(get(rep));
  return compute_stats(samples);
}

}  // namespace

SampleStats JobResult::duration_stats() const {
  return repetition_stats(
      repetitions, [](const RepetitionResult& r) {
        return r.measurement.duration_s;
      });
}

SampleStats JobResult::total_j_stats() const {
  return repetition_stats(repetitions, [](const RepetitionResult& r) {
    return r.measurement.total_j();
  });
}

double JobResult::mean_duration_s() const { return duration_stats().mean; }

double JobResult::mean_total_j() const { return total_j_stats().mean; }

double JobResult::mean_pkg_j() const {
  return repetition_stats(repetitions, [](const RepetitionResult& r) {
           return r.measurement.total_pkg_j();
         })
      .mean;
}

double JobResult::mean_dram_j() const {
  return repetition_stats(repetitions, [](const RepetitionResult& r) {
           return r.measurement.total_dram_j();
         })
      .mean;
}

double JobResult::mean_power_w() const {
  const double t = mean_duration_s();
  return t > 0.0 ? mean_total_j() / t : 0.0;
}

double JobResult::worst_residual() const {
  double worst = 0.0;
  for (const auto& rep : repetitions) worst = std::max(worst, rep.residual);
  return worst;
}

JobResult run_job(const hw::MachineSpec& machine, const JobSpec& spec,
                  const MonitorOptions& options) {
  PLIN_CHECK_MSG(spec.n > 0, "campaign: job needs a matrix size");
  PLIN_CHECK_MSG(spec.repetitions > 0, "campaign: need >= 1 repetition");
  validate(spec);

  xmpi::RunConfig config;
  config.machine = machine;
  config.placement = hw::make_placement(spec.ranks, spec.layout, machine);

  // Reference right-hand side for the residual check. The system itself is
  // never materialized: both families stream it through generated_residual.
  const bool cg = spec.algorithm == perfsim::Algorithm::kCg;
  const std::vector<double> b = linalg::generate_rhs(spec.seed, spec.n);

  JobResult result;
  result.spec = spec;
  for (int rep = 0; rep < spec.repetitions; ++rep) {
    // The trace is canonical (independent of host scheduling), so archiving
    // the first repetition captures the job exactly once.
    config.trace_dir = rep == 0 ? options.trace_dir : std::string();
    Stopwatch wall;
    RepetitionResult rr;
    const xmpi::RunResult run = xmpi::Runtime::run(config, [&](xmpi::Comm& world) {
      std::vector<double> x;
      const RunMeasurement measurement = monitored_run(
          world, options, [&](xmpi::Comm& comm) {
            if (spec.power_cap_w > 0.0) {
              // One rank per node programs both package limits, then the
              // world synchronizes before the solve (the powercap_explorer
              // protocol, now reachable from batch manifests).
              if (comm.my_location().socket == 0 &&
                  comm.my_location().core == 0) {
                (void)papisim::set_powercap_limit(
                    "powercap:::POWER_LIMIT_A_UW:ZONE0",
                    static_cast<long long>(spec.power_cap_w * 1e6));
                (void)papisim::set_powercap_limit(
                    "powercap:::POWER_LIMIT_A_UW:ZONE1",
                    static_cast<long long>(spec.power_cap_w * 1e6));
              }
              comm.barrier();
            }
            if (cg) {
              solvers::CgOptions opt;
              opt.kind = spec.matrix;
              opt.n = spec.n;
              opt.seed = spec.seed;
              opt.tolerance = spec.tolerance;
              opt.precond = spec.precond;
              solvers::CgResult r = solve_pcg(comm, opt);
              x = std::move(r.x);
              if (comm.rank() == 0) {
                PLIN_CHECK_MSG(r.converged, "campaign: cg did not converge");
                rr.cg_iters = r.iterations;
                rr.nnz = r.nnz;
              }
            } else if (spec.algorithm == perfsim::Algorithm::kIme) {
              solvers::ImepOptions opt;
              opt.n = spec.n;
              opt.seed = spec.seed;
              x = solve_imep(comm, opt).x;
            } else if (spec.precision == perfsim::Precision::kMixed) {
              solvers::GeppMixedOptions opt;
              opt.n = spec.n;
              opt.seed = spec.seed;
              opt.nb = spec.nb;
              solvers::GeppMixedResult r = solve_gepp_mixed(comm, opt);
              x = std::move(r.x);
              if (comm.rank() == 0) {
                rr.refine_iters = r.iters;
                rr.fell_back = r.fell_back;
              }
            } else {
              solvers::PdgesvOptions opt;
              opt.n = spec.n;
              opt.seed = spec.seed;
              opt.nb = spec.nb;
              x = solve_pdgesv(comm, opt).x;
            }
          });
      if (world.rank() == 0) {
        rr.measurement = measurement;
        rr.residual = cg ? sparse::generated_residual(spec.matrix, spec.seed,
                                                      spec.n, x, b)
                         : linalg::generated_residual(spec.seed, spec.n, x,
                                                      b);
      }
    });
    rr.data_messages = run.traffic.data_messages;
    rr.halo_messages = run.traffic.halo_messages;
    rr.halo_bytes = run.traffic.halo_bytes;
    rr.host_seconds = wall.elapsed_s();
    // Refinement targets n*eps backward error — up to an order looser than
    // the fp64 direct solve's gate, still fp64-grade accuracy.
    PLIN_CHECK_MSG(rr.residual < (spec.precision == perfsim::Precision::kMixed
                                      ? 1e-9
                                      : 1e-10),
                   "campaign: solver produced a bad residual");
    result.repetitions.push_back(std::move(rr));
  }
  return result;
}

void print_campaign_table(std::ostream& os, std::span<const JobResult> jobs) {
  // Pure-fp64 dense campaigns print exactly the historical columns (the
  // golden outputs pin those bytes): the optional spec columns follow the
  // algorithm, and the cg result columns ride on the matrix column.
  const OptionalColumns optional = optional_columns(jobs);
  const bool cg_results = optional.has("matrix");
  const Axis& matrix = *find_axis("matrix");
  std::vector<std::string> header = {"algorithm"};
  for (const Axis* axis : optional.axes) header.push_back(axis->name);
  header.insert(header.end(),
                {"n", "ranks", "layout", "reps", "duration", "PKG energy",
                 "DRAM energy", "total", "power", "residual"});
  if (cg_results) {
    header.insert(header.end(), {"iters", "nnz", "halo msgs", "halo bytes"});
  }
  TextTable table(header);
  for (const JobResult& job : jobs) {
    std::vector<std::string> row = {
        std::string(perfsim::to_string(job.spec.algorithm))};
    for (const Axis* axis : optional.axes) row.push_back(axis->cell(job.spec));
    row.insert(row.end(),
               {std::to_string(job.spec.n), std::to_string(job.spec.ranks),
                hw::to_string(job.spec.layout),
                std::to_string(job.spec.repetitions),
                format_duration(job.mean_duration_s()),
                format_energy(job.mean_pkg_j()),
                format_energy(job.mean_dram_j()),
                format_energy(job.mean_total_j()),
                format_power(job.mean_power_w()),
                format_fixed(job.worst_residual() * 1e15, 2) + "e-15"});
    if (cg_results) {
      const RepetitionResult& first = job.repetitions.front();
      const bool has = matrix.applies_to(job.spec.algorithm);
      row.push_back(has ? std::to_string(first.cg_iters) : "-");
      row.push_back(has ? std::to_string(first.nnz) : "-");
      row.push_back(has ? std::to_string(first.halo_messages) : "-");
      row.push_back(has ? std::to_string(first.halo_bytes) : "-");
    }
    table.add_row(row);
  }
  table.print(os);
}

void write_campaign_csv(std::ostream& os, std::span<const JobResult> jobs) {
  // Same column rules as the table; the mixed refinement columns ride on
  // the precision column.
  const OptionalColumns optional = optional_columns(jobs);
  const bool cg_results = optional.has("matrix");
  const bool mixed_results = optional.has("precision");
  const Axis& matrix = *find_axis("matrix");
  CsvWriter csv(os);
  std::vector<std::string> header = {"algorithm"};
  for (const Axis* axis : optional.axes) header.push_back(axis->name);
  header.insert(header.end(),
                {"n", "ranks", "layout", "repetition", "duration_s", "pkg0_j",
                 "pkg1_j", "dram0_j", "dram1_j", "total_j", "power_w",
                 "residual", "host_s"});
  if (cg_results) {
    header.insert(header.end(), {"cg_iters", "nnz", "halo_msgs", "halo_bytes"});
  }
  if (mixed_results) header.insert(header.end(), {"refine_iters", "fell_back"});
  csv.write_row(header);
  for (const JobResult& job : jobs) {
    for (std::size_t i = 0; i < job.repetitions.size(); ++i) {
      const RepetitionResult& rep = job.repetitions[i];
      const RunMeasurement& m = rep.measurement;
      std::vector<std::string> row = {
          std::string(perfsim::to_string(job.spec.algorithm))};
      for (const Axis* axis : optional.axes) {
        row.push_back(axis->cell(job.spec));
      }
      row.insert(row.end(),
                 {std::to_string(job.spec.n), std::to_string(job.spec.ranks),
                  hw::to_string(job.spec.layout), std::to_string(i),
                  format_fixed(m.duration_s, 9), format_fixed(m.pkg_j[0], 6),
                  format_fixed(m.pkg_j[1], 6), format_fixed(m.dram_j[0], 6),
                  format_fixed(m.dram_j[1], 6), format_fixed(m.total_j(), 6),
                  format_fixed(m.avg_power_w(), 3),
                  format_fixed(rep.residual, 18),
                  format_fixed(rep.host_seconds, 4)});
      if (cg_results) {
        const bool has = matrix.applies_to(job.spec.algorithm);
        row.push_back(has ? std::to_string(rep.cg_iters) : "0");
        row.push_back(has ? std::to_string(rep.nnz) : "0");
        row.push_back(std::to_string(rep.halo_messages));
        row.push_back(std::to_string(rep.halo_bytes));
      }
      if (mixed_results) {
        row.push_back(std::to_string(rep.refine_iters));
        row.push_back(rep.fell_back ? "1" : "0");
      }
      csv.write_row(row);
    }
  }
}

}  // namespace plin::monitor
