// Campaign harness — the paper's testing framework (§4, §5.1): runs a
// configured job (algorithm, matrix size, ranks, layout) a number of times
// under the white-box monitor, collects per-repetition measurements and
// stores results both human-readable and as CSV.
//
// The input system is generated from a fixed seed — the equivalent of the
// paper loading the system from a file "to ensure consistent input data
// for repetitive measurements".
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "hwmodel/machine.hpp"
#include "monitor/spec.hpp"
#include "monitor/white_box.hpp"
#include "support/stats.hpp"

namespace plin::monitor {

struct RepetitionResult {
  RunMeasurement measurement;
  double residual = 0.0;     // scaled residual of the computed solution
  double host_seconds = 0.0; // wall time of this repetition (diagnostics)
  int refine_iters = 0;      // mixed precision: fp64 refinement sweeps
  bool fell_back = false;    // mixed precision: fp32 abandoned for fp64
  int cg_iters = 0;          // CG: iterations to convergence
  std::size_t nnz = 0;       // CG: global pattern nonzeros streamed
  /// Every data message of the run: the solver's and the monitor's own.
  std::uint64_t data_messages = 0;
  /// CG: aggregate per-iteration halo traffic of the run (send-side counts
  /// from TrafficCounters — zero for the dense solvers and for CG systems
  /// whose partition has an empty halo, e.g. block-diagonal families).
  std::uint64_t halo_messages = 0;
  std::uint64_t halo_bytes = 0;
};

struct JobResult {
  JobSpec spec;
  std::vector<RepetitionResult> repetitions;

  /// Full repetition statistics (support/stats.hpp) for the two headline
  /// quantities; mean_* below are the means of the same distributions.
  SampleStats duration_stats() const;
  SampleStats total_j_stats() const;

  double mean_duration_s() const;
  double mean_total_j() const;
  double mean_pkg_j() const;
  double mean_dram_j() const;
  double mean_power_w() const;
  double worst_residual() const;
};

/// Runs one job on the numeric tier (xmpi execution under the white-box
/// monitor) on `machine`; spec.tier and spec.machine are not read. Throws
/// on an invalid spec or a solver failure.
JobResult run_job(const hw::MachineSpec& machine, const JobSpec& spec,
                  const MonitorOptions& options = {});

/// Human-readable results table (the framework's "human-readable format").
void print_campaign_table(std::ostream& os, std::span<const JobResult> jobs);

/// Machine-readable CSV with one row per repetition.
void write_campaign_csv(std::ostream& os, std::span<const JobResult> jobs);

}  // namespace plin::monitor
