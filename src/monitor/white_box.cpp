#include "monitor/white_box.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace plin::monitor {
namespace {

constexpr int kTagReport = 40;

/// Cumulative per-domain counter snapshot at a phase boundary.
struct Cut {
  double time = 0.0;
  double pkg_j[2] = {0.0, 0.0};
  double dram_j[2] = {0.0, 0.0};
};

Cut cut_from_session(const MonitoringSession& session, double time) {
  Cut cut;
  cut.time = time;
  for (int p = 0; p < session.packages() && p < 2; ++p) {
    cut.pkg_j[p] = session.package_j(p);
    cut.dram_j[p] = session.dram_j(p);
  }
  return cut;
}

NodeReport report_between(const Cut& from, const Cut& to, int node,
                          int world_rank) {
  NodeReport report;
  report.node = node;
  report.monitoring_world_rank = world_rank;
  report.start_s = from.time;
  report.stop_s = to.time;
  for (int p = 0; p < 2; ++p) {
    report.pkg_j[p] = to.pkg_j[p] - from.pkg_j[p];
    report.dram_j[p] = to.dram_j[p] - from.dram_j[p];
  }
  return report;
}

/// Aggregates a set of per-node reports into a run summary.
void aggregate(RunMeasurement& measurement) {
  measurement.duration_s = 0.0;
  for (int p = 0; p < 2; ++p) {
    measurement.pkg_j[p] = 0.0;
    measurement.dram_j[p] = 0.0;
  }
  for (const NodeReport& report : measurement.nodes) {
    measurement.duration_s =
        std::max(measurement.duration_s, report.duration_s());
    for (int p = 0; p < 2; ++p) {
      measurement.pkg_j[p] += report.pkg_j[p];
      measurement.dram_j[p] += report.dram_j[p];
    }
  }
}

PhasedMeasurement run_phases_protocol(xmpi::Comm& world,
                                      const MonitorOptions& options,
                                      std::vector<Phase>& phases,
                                      bool align_world) {
  PLIN_CHECK_MSG(!phases.empty(), "monitored run needs at least one phase");
  for (const Phase& phase : phases) {
    PLIN_CHECK_MSG(static_cast<bool>(phase.workload),
                   "phase workload must be callable");
  }
  const std::size_t nphases = phases.size();

  // The report gather names each node's monitoring rank by world rank.
  PLIN_CHECK_MSG(world.size() == world.world().layout().ranks() &&
                     world.rank() == world.world_rank(),
                 "monitored runs need the world communicator");

  // Group ranks per node and elect the highest rank as monitoring rank.
  xmpi::Comm node_comm = world.split_shared_node();
  const bool monitoring = node_comm.rank() == node_comm.size() - 1;

  MonitoringSession session;
  std::vector<Cut> cuts;  // [0] = start, then one per phase boundary

  // Node synchronization, then the monitoring ranks start collecting.
  node_comm.barrier();
  if (monitoring) {
    session.start(world, options.component);
    world.prof_instant("papi:start");
    cuts.push_back(Cut{session.start_time_s(), {0.0, 0.0}, {0.0, 0.0}});
  }

  // General execution synchronization aligning all ranks for the solver
  // phase (white-box only; the black-box variant skips it).
  if (align_world) world.barrier();

  // Every rank brackets its measured region (and each phase) for the span
  // tracer, mirroring the monitoring ranks' counter windows.
  world.prof_phase_begin("monitor:measured");
  for (std::size_t p = 0; p < nphases; ++p) {
    world.prof_phase_begin(phases[p].name);
    phases[p].workload(world);
    world.prof_phase_end();
    // Phase boundaries are node-aligned so the mid-flight PAPI read covers
    // every rank's share of the phase; the final boundary is the ordinary
    // end-of-monitoring node barrier.
    if (p + 1 < nphases) {
      node_comm.barrier();
      if (monitoring) {
        const double t = session.sample(world);
        world.prof_instant("papi:sample");
        cuts.push_back(cut_from_session(session, t));
      }
    }
  }
  world.prof_phase_end();

  // Node synchronization so the monitoring rank stops only after every
  // rank of its node finished its part.
  node_comm.barrier();
  if (monitoring) {
    session.stop(world);
    world.prof_instant("papi:stop");
    cuts.push_back(cut_from_session(session, session.stop_time_s()));
    if (!options.output_dir.empty()) {
      write_processor_file(options.output_dir, world.my_node(), session);
    }
  }
  if (align_world) world.barrier();

  // ---- gather per-node reports on world rank 0 ----------------------------
  const int monitor_count =
      world.allreduce_value(monitoring ? 1 : 0, xmpi::ReduceOp::kSum);

  // Each monitoring rank ships 1 total report + one per phase.
  std::vector<NodeReport> mine(1 + nphases);
  if (monitoring) {
    mine[0] = report_between(cuts.front(), cuts.back(), world.my_node(),
                             world.rank());
    for (std::size_t p = 0; p < nphases; ++p) {
      mine[1 + p] = report_between(cuts[p], cuts[p + 1], world.my_node(),
                                   world.rank());
    }
    session.terminate();
  }

  PhasedMeasurement result;
  result.phases.reserve(nphases);
  for (std::size_t p = 0; p < nphases; ++p) {
    result.phases.emplace_back(phases[p].name, RunMeasurement{});
  }

  if (world.rank() == 0) {
    // Each node's report comes from its monitoring rank, the node's highest
    // rank, received in node order: an exact source per message, so which
    // report arrives first on the host cannot move rank 0's clock.
    const hw::ClusterLayout& layout = world.world().layout();
    std::vector<std::vector<NodeReport>> all;
    all.reserve(static_cast<std::size_t>(monitor_count));
    for (int node = 0; node < layout.nodes(); ++node) {
      const hw::RankRange on_node = layout.ranks_on_node(node);
      if (on_node.empty()) continue;
      const int monitor_rank =
          on_node.front() + static_cast<int>(on_node.size()) - 1;
      if (monitor_rank == 0) {
        all.push_back(mine);
      } else {
        std::vector<NodeReport>& incoming = all.emplace_back(1 + nphases);
        world.recv(std::span<NodeReport>(incoming), monitor_rank, kTagReport);
      }
    }
    PLIN_CHECK_MSG(static_cast<int>(all.size()) == monitor_count,
                   "one report per node with ranks");
    for (const auto& reports : all) {
      result.total.nodes.push_back(reports[0]);
      for (std::size_t p = 0; p < nphases; ++p) {
        result.phases[p].second.nodes.push_back(reports[1 + p]);
      }
    }
    aggregate(result.total);
    for (auto& [name, measurement] : result.phases) aggregate(measurement);
  } else if (monitoring) {
    world.send(std::span<const NodeReport>(mine), 0, kTagReport);
  }

  // Replicate the summaries on every rank.
  std::vector<Cut> summaries(1 + nphases);
  if (world.rank() == 0) {
    summaries[0] = Cut{result.total.duration_s,
                       {result.total.pkg_j[0], result.total.pkg_j[1]},
                       {result.total.dram_j[0], result.total.dram_j[1]}};
    for (std::size_t p = 0; p < nphases; ++p) {
      const RunMeasurement& m = result.phases[p].second;
      summaries[1 + p] =
          Cut{m.duration_s, {m.pkg_j[0], m.pkg_j[1]},
              {m.dram_j[0], m.dram_j[1]}};
    }
  }
  world.bcast(std::span<Cut>(summaries), 0);
  const auto apply = [](RunMeasurement& m, const Cut& cut) {
    m.duration_s = cut.time;
    for (int p = 0; p < 2; ++p) {
      m.pkg_j[p] = cut.pkg_j[p];
      m.dram_j[p] = cut.dram_j[p];
    }
  };
  apply(result.total, summaries[0]);
  for (std::size_t p = 0; p < nphases; ++p) {
    apply(result.phases[p].second, summaries[1 + p]);
  }
  return result;
}

}  // namespace

RunMeasurement monitored_run(
    xmpi::Comm& world, const MonitorOptions& options,
    const std::function<void(xmpi::Comm&)>& workload) {
  std::vector<Phase> phases;
  phases.push_back(Phase{"all", workload});
  return run_phases_protocol(world, options, phases, /*align_world=*/true)
      .total;
}

PhasedMeasurement monitored_run_phases(xmpi::Comm& world,
                                       const MonitorOptions& options,
                                       std::vector<Phase> phases) {
  return run_phases_protocol(world, options, phases, /*align_world=*/true);
}

RunMeasurement blackbox_run(
    xmpi::Comm& world, const MonitorOptions& options,
    const std::function<void(xmpi::Comm&)>& workload) {
  std::vector<Phase> phases;
  phases.push_back(Phase{"all", workload});
  return run_phases_protocol(world, options, phases, /*align_world=*/false)
      .total;
}

}  // namespace plin::monitor
