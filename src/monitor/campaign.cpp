#include "monitor/campaign.hpp"

#include <algorithm>

#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
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

std::string JobSpec::describe() const {
  std::string out = std::string(perfsim::to_string(algorithm)) + " n=" +
                    std::to_string(n) + " ranks=" + std::to_string(ranks) +
                    " " + hw::to_string(layout);
  if (precision == perfsim::Precision::kMixed) out += " mixed";
  if (algorithm == perfsim::Algorithm::kCg) {
    out += std::string(" ") + sparse::kind_token(matrix);
    if (precond != solvers::CgPrecond::kNone) {
      out += std::string(" ") + solvers::precond_token(precond);
    }
  }
  return out;
}

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
  PLIN_CHECK_MSG(spec.precision == perfsim::Precision::kFp64 ||
                     spec.algorithm == perfsim::Algorithm::kScalapack,
                 "campaign: mixed precision is a GEPP (scalapack) variant");

  xmpi::RunConfig config;
  config.machine = machine;
  config.placement = hw::make_placement(spec.ranks, spec.layout, machine);

  // Reference data for the residual check (numeric-tier sizes only): the
  // dense generated system for the dense solvers. CG streams its sparse
  // family through generated_residual instead of materializing it.
  const bool is_cg = spec.algorithm == perfsim::Algorithm::kCg;
  const linalg::Matrix a =
      is_cg ? linalg::Matrix(1, 1)
            : linalg::generate_system_matrix(spec.seed, spec.n);
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
            if (spec.algorithm == perfsim::Algorithm::kCg) {
              solvers::CgOptions opt;
              opt.kind = spec.matrix;
              opt.n = spec.n;
              opt.seed = spec.seed;
              opt.tolerance = spec.tolerance;
              opt.precond = spec.precond;
              const solvers::CgResult r = solve_pcg(comm, opt);
              x = r.x;
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
              const solvers::GeppMixedResult r = solve_gepp_mixed(comm, opt);
              x = r.x;
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
        rr.residual = is_cg ? sparse::generated_residual(
                                  spec.matrix, spec.seed, spec.n, x, b)
                            : linalg::scaled_residual(a.view(), x, b);
      }
    });
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

namespace {

/// Pure-fp64 campaigns print exactly the historical columns (the golden
/// outputs pin those bytes); the precision column appears only once a
/// mixed job is in the report.
bool any_mixed(std::span<const JobResult> jobs) {
  for (const JobResult& job : jobs) {
    if (job.spec.precision != perfsim::Precision::kFp64) return true;
  }
  return false;
}

/// Same byte-stability contract for the sparse columns: matrix / iters /
/// nnz appear only once a CG job is in the report.
bool any_cg(std::span<const JobResult> jobs) {
  for (const JobResult& job : jobs) {
    if (job.spec.algorithm == perfsim::Algorithm::kCg) return true;
  }
  return false;
}

/// The precond column appears only once a preconditioned job is present —
/// plain-CG campaigns keep printing their historical bytes.
bool any_precond(std::span<const JobResult> jobs) {
  for (const JobResult& job : jobs) {
    if (job.spec.precond != solvers::CgPrecond::kNone) return true;
  }
  return false;
}

}  // namespace

void print_campaign_table(std::ostream& os, std::span<const JobResult> jobs) {
  const bool mixed = any_mixed(jobs);
  const bool cg = any_cg(jobs);
  const bool precond = any_precond(jobs);
  std::vector<std::string> header = {"algorithm", "n", "ranks", "layout",
                                     "reps", "duration", "PKG energy",
                                     "DRAM energy", "total", "power",
                                     "residual"};
  if (cg) {
    header.insert(header.begin() + 1, "matrix");
    if (precond) header.insert(header.begin() + 2, "precond");
    header.push_back("iters");
    header.push_back("nnz");
    header.push_back("halo msgs");
    header.push_back("halo bytes");
  }
  if (mixed) header.insert(header.begin() + 1, "precision");
  TextTable table(header);
  for (const JobResult& job : jobs) {
    const bool job_cg = job.spec.algorithm == perfsim::Algorithm::kCg;
    std::vector<std::string> row = {
        std::string(perfsim::to_string(job.spec.algorithm)),
        std::to_string(job.spec.n),
        std::to_string(job.spec.ranks),
        hw::to_string(job.spec.layout),
        std::to_string(job.spec.repetitions),
        format_duration(job.mean_duration_s()),
        format_energy(job.mean_pkg_j()),
        format_energy(job.mean_dram_j()),
        format_energy(job.mean_total_j()),
        format_power(job.mean_power_w()),
        format_fixed(job.worst_residual() * 1e15, 2) + "e-15"};
    if (cg) {
      row.insert(row.begin() + 1,
                 job_cg ? sparse::kind_token(job.spec.matrix) : "-");
      if (precond) {
        row.insert(row.begin() + 2,
                   job_cg ? solvers::precond_token(job.spec.precond) : "-");
      }
      const RepetitionResult& first = job.repetitions.front();
      row.push_back(job_cg ? std::to_string(first.cg_iters) : "-");
      row.push_back(job_cg ? std::to_string(first.nnz) : "-");
      row.push_back(job_cg ? std::to_string(first.halo_messages) : "-");
      row.push_back(job_cg ? std::to_string(first.halo_bytes) : "-");
    }
    if (mixed) {
      row.insert(row.begin() + 1, perfsim::to_string(job.spec.precision));
    }
    table.add_row(row);
  }
  table.print(os);
}

void write_campaign_csv(std::ostream& os, std::span<const JobResult> jobs) {
  const bool mixed = any_mixed(jobs);
  const bool cg = any_cg(jobs);
  const bool precond = any_precond(jobs);
  CsvWriter csv(os);
  std::vector<std::string> header = {"algorithm", "n", "ranks", "layout",
                                     "repetition", "duration_s", "pkg0_j",
                                     "pkg1_j", "dram0_j", "dram1_j",
                                     "total_j", "power_w", "residual",
                                     "host_s"};
  if (cg) {
    header.insert(header.begin() + 1, "matrix");
    if (precond) header.insert(header.begin() + 2, "precond");
    header.push_back("cg_iters");
    header.push_back("nnz");
    header.push_back("halo_msgs");
    header.push_back("halo_bytes");
  }
  if (mixed) {
    header.insert(header.begin() + 1, "precision");
    header.push_back("refine_iters");
    header.push_back("fell_back");
  }
  csv.write_row(header);
  for (const JobResult& job : jobs) {
    const bool job_cg = job.spec.algorithm == perfsim::Algorithm::kCg;
    for (std::size_t i = 0; i < job.repetitions.size(); ++i) {
      const RepetitionResult& rep = job.repetitions[i];
      const RunMeasurement& m = rep.measurement;
      std::vector<std::string> row = {
          std::string(perfsim::to_string(job.spec.algorithm)),
          std::to_string(job.spec.n),
          std::to_string(job.spec.ranks),
          hw::to_string(job.spec.layout),
          std::to_string(i),
          format_fixed(m.duration_s, 9),
          format_fixed(m.pkg_j[0], 6),
          format_fixed(m.pkg_j[1], 6),
          format_fixed(m.dram_j[0], 6),
          format_fixed(m.dram_j[1], 6),
          format_fixed(m.total_j(), 6),
          format_fixed(m.avg_power_w(), 3),
          format_fixed(rep.residual, 18),
          format_fixed(rep.host_seconds, 4)};
      if (cg) {
        row.insert(row.begin() + 1,
                   job_cg ? sparse::kind_token(job.spec.matrix) : "-");
        if (precond) {
          row.insert(row.begin() + 2,
                     job_cg ? solvers::precond_token(job.spec.precond) : "-");
        }
        row.push_back(job_cg ? std::to_string(rep.cg_iters) : "0");
        row.push_back(job_cg ? std::to_string(rep.nnz) : "0");
        row.push_back(std::to_string(rep.halo_messages));
        row.push_back(std::to_string(rep.halo_bytes));
      }
      if (mixed) {
        row.insert(row.begin() + 1, perfsim::to_string(job.spec.precision));
        row.push_back(std::to_string(rep.refine_iters));
        row.push_back(rep.fell_back ? "1" : "0");
      }
      csv.write_row(row);
    }
  }
}

}  // namespace plin::monitor
