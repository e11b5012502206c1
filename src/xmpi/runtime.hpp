// Runtime — executes a rank-main function on every simulated rank of a
// placement, then aggregates virtual duration, traffic and per-domain
// energy.
//
// Rank execution is multiplexed over a bounded worker pool
// (FiberScheduler: N host workers ≈ cores running all ranks on user-level
// stacks), with an inline fast path for 1-rank worlds. The worker count
// changes host wall-clock only: all simulated outputs are bit-identical
// across worker counts (see docs/xmpi.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "prof/span.hpp"
#include "xmpi/comm.hpp"

namespace plin::xmpi {

/// Energy of one RAPL package pair (PKG + its DRAM domain), in joules.
struct PackageEnergy {
  double pkg_j = 0.0;
  double dram_j = 0.0;
};

struct NodeEnergy {
  std::vector<PackageEnergy> packages;
};

struct EnergyReport {
  std::vector<NodeEnergy> nodes;

  double total_pkg_j() const;
  double total_dram_j() const;
  double total_j() const { return total_pkg_j() + total_dram_j(); }
};

struct RunConfig {
  hw::MachineSpec machine;
  hw::Placement placement;
  /// Worker-pool size; 0 → PLIN_XMPI_WORKERS env, else
  /// hardware_concurrency. Clamped to the rank count, so workers = ranks
  /// gives every rank its own host thread. Simulated results do not
  /// depend on it.
  std::size_t workers = 0;
  /// Usable bytes per rank fiber stack; 0 → PLIN_XMPI_STACK_KB env, else
  /// 512 KiB (lazily committed).
  std::size_t fiber_stack_bytes = 0;
  /// The collective schedule family; kAuto resolves from PLIN_XMPI_COLL
  /// (docs/xmpi.md). It changes simulated schedules (default: the seed
  /// tree schedules).
  TransportConfig transport;
  /// Enables span tracing for this run even when no output path is set;
  /// the collected prof::TraceData is returned in RunResult::trace.
  /// Tracing is also switched on by chrome_trace_path / trace_dir below or
  /// by a truthy PLIN_TRACE environment variable (docs/tracing.md).
  bool trace = false;
  /// Per-rank span ring capacity; 0 → PLIN_TRACE_SPANS env, else
  /// prof::kDefaultRingSpans. Phase brackets and per-peer counters are
  /// exact regardless; only fine-grained spans are ring-bounded.
  std::size_t trace_ring_spans = 0;
  /// If non-empty, the run's spans are written to this path as a
  /// chrome://tracing / Perfetto JSON file: one track per rank (grouped by
  /// node), slices for phases / collectives / activities / messages, and a
  /// per-node dynamic-power counter track. Numeric-tier scale only.
  std::string chrome_trace_path;
  /// If non-empty, the full canonical trace bundle (trace.json,
  /// summary.json and the analysis CSVs) is written into this directory.
  /// The bundle bytes are identical across worker counts.
  std::string trace_dir;
  /// If > 0, RunResult.timeline holds a per-node power time series sampled
  /// at this virtual-time period — the simulated *external wattmeter* view
  /// (the "ground truth" instrument the paper's §6 plans to add next to
  /// PAPI). Unlike RAPL it sees every domain of the node continuously and
  /// is not quantized to millisecond counter updates.
  double timeline_period_s = 0.0;
};

/// One wattmeter sample: average power over (t - period, t].
struct TimelineSample {
  double t = 0.0;
  double pkg_w[2] = {0.0, 0.0};
  double dram_w[2] = {0.0, 0.0};

  double node_w() const {
    return pkg_w[0] + pkg_w[1] + dram_w[0] + dram_w[1];
  }
};

struct NodeTimeline {
  int node = 0;
  std::vector<TimelineSample> samples;
};

struct RunResult {
  /// Virtual time at which the last rank finished.
  double duration_s = 0.0;
  /// Per-rank completion times (virtual).
  std::vector<double> rank_times;
  /// Aggregated traffic counters (send-side classes + receive mirror).
  TrafficCounters traffic;
  /// Per-world-rank traffic — through_bytes() of rank 0 is the root-funnel
  /// load the scalable collectives eliminate (bench_collectives).
  std::vector<TrafficCounters> rank_traffic;
  /// Per-node, per-package energy integrated over [0, duration_s].
  EnergyReport energy;
  /// Core-seconds by activity, summed over every core of the run — the
  /// utilization breakdown behind the power figures.
  double compute_s = 0.0;
  double membound_s = 0.0;
  double commactive_s = 0.0;
  double commwait_s = 0.0;

  /// External-wattmeter time series (one per node); filled only when
  /// RunConfig::timeline_period_s > 0.
  std::vector<NodeTimeline> timeline;

  /// Collected span trace; non-null only when tracing was enabled (and the
  /// prof subsystem is compiled in). Shared so callers can hold it past
  /// further runs cheaply.
  std::shared_ptr<const prof::TraceData> trace;

  /// Host-side diagnostics (never feed back into simulated numbers):
  /// which executor actually ran ("inline" for 1-rank worlds, else
  /// "pool"), how many host workers it used, and the pool's fiber
  /// park/wake counts (0 inline).
  std::string host_executor;
  std::size_t host_workers = 0;
  std::uint64_t host_parks = 0;
  std::uint64_t host_wakes = 0;
  /// Transport counters for this run (pool hits/misses/peak bytes, eager
  /// vs rendezvous deliveries). Host-side diagnostics like the fields
  /// above: the values depend on host scheduling (whether a receiver was
  /// already parked when its sender posted), so they are deliberately
  /// excluded from the canonical trace bundle.
  TransportStats transport;

  double busy_s() const {
    return compute_s + membound_s + commactive_s + commwait_s;
  }
};

class Runtime {
 public:
  using RankMain = std::function<void(Comm&)>;

  /// Runs `rank_main` on every rank of the placement. Exceptions thrown by
  /// any rank abort the run and are rethrown here (first one wins). A run
  /// in which every unfinished rank waits on a receive that can never
  /// match throws an Error naming the deadlock.
  static RunResult run(const RunConfig& config, const RankMain& rank_main);
};

}  // namespace plin::xmpi
