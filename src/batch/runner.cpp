#include "batch/runner.hpp"

#include "monitor/campaign.hpp"
#include "perfsim/simulator.hpp"
#include "sparse/generate.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace plin::batch {
namespace {

JobRecord run_numeric(const JobSpec& spec, const hw::MachineSpec& machine,
                      const std::string& trace_dir) {
  monitor::MonitorOptions moptions;
  if (!trace_dir.empty()) {
    // One bundle per job, addressed by the same key the result store uses.
    moptions.trace_dir = trace_dir + "/" + spec.key();
  }
  const monitor::JobResult result = monitor::run_job(machine, spec, moptions);

  JobRecord record;
  record.spec = spec;
  record.repetitions.reserve(result.repetitions.size());
  for (const monitor::RepetitionResult& rep : result.repetitions) {
    RepetitionRecord r;
    r.duration_s = rep.measurement.duration_s;
    r.pkg_j[0] = rep.measurement.pkg_j[0];
    r.pkg_j[1] = rep.measurement.pkg_j[1];
    r.dram_j[0] = rep.measurement.dram_j[0];
    r.dram_j[1] = rep.measurement.dram_j[1];
    r.residual = rep.residual;
    r.host_s = rep.host_seconds;
    r.cg_iters = rep.cg_iters;
    r.nnz = rep.nnz;
    r.halo_messages = rep.halo_messages;
    r.halo_bytes = rep.halo_bytes;
    record.repetitions.push_back(r);
  }
  return record;
}

JobRecord run_replay(const JobSpec& spec, const hw::MachineSpec& machine) {
  Stopwatch wall;
  const perfsim::Simulator simulator(machine);
  const hw::Placement placement =
      hw::make_placement(spec.ranks, spec.layout, machine);
  const perfsim::Workload workload = spec.workload();
  const perfsim::Prediction p = simulator.predict(workload, placement);
  const double host_s = wall.elapsed_s();

  // The model is deterministic, so every repetition is the same point; the
  // record still carries `reps` rows so downstream aggregation is uniform
  // across tiers.
  RepetitionRecord r;
  r.duration_s = p.duration_s;
  r.pkg_j[0] = p.pkg_j[0];
  r.pkg_j[1] = p.pkg_j[1];
  r.dram_j[0] = p.dram_j[0];
  r.dram_j[1] = p.dram_j[1];
  r.residual = 0.0;
  r.host_s = host_s;
  if (spec.algorithm == perfsim::Algorithm::kCg) {
    r.cg_iters = perfsim::cg_model_iters(workload.matrix, workload.tolerance);
    r.nnz = sparse::pattern_nnz(workload.matrix, spec.n);
  }

  JobRecord record;
  record.spec = spec;
  record.repetitions.assign(static_cast<std::size_t>(spec.repetitions), r);
  return record;
}

}  // namespace

JobRecord execute_job(const JobSpec& spec, const std::string& trace_dir) {
  PLIN_CHECK_MSG(spec.n > 0, "batch: job needs a matrix size");
  PLIN_CHECK_MSG(spec.repetitions > 0, "batch: need >= 1 repetition");
  const hw::MachineSpec machine = machine_from_name(spec.machine);
  return spec.tier == Tier::kNumeric ? run_numeric(spec, machine, trace_dir)
                                     : run_replay(spec, machine);
}

}  // namespace plin::batch
