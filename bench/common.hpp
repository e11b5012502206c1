// Shared helpers for the figure/table benches: the paper-scale sweep grid
// (replay tier) and a numeric-tier miniature that exercises the same
// pipeline end-to-end through the executing runtime and the white-box
// monitor.
#pragma once

#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "monitor/campaign.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/efficiency.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace plin::bench {

struct SweepKey {
  perfsim::Algorithm algorithm;
  std::size_t n;
  int ranks;
  hw::LoadLayout layout;

  bool operator<(const SweepKey& other) const {
    return std::tie(algorithm, n, ranks, layout) <
           std::tie(other.algorithm, other.n, other.ranks, other.layout);
  }
};

/// All paper configurations (2 algorithms x 4 sizes x 3 rank counts x the
/// requested layouts) predicted by the replay tier on Marconi A3.
class PaperSweep {
 public:
  explicit PaperSweep(std::vector<hw::LoadLayout> layouts = {
                          hw::LoadLayout::kFullLoad}) {
    const hw::MachineSpec machine = hw::marconi_a3();
    const perfsim::Simulator simulator(machine);
    for (perfsim::Algorithm algorithm :
         {perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack}) {
      for (std::size_t n : hw::kPaperMatrixSizes) {
        for (int ranks : hw::kPaperRankCounts) {
          for (hw::LoadLayout layout : layouts) {
            const hw::Placement placement =
                hw::make_placement(ranks, layout, machine);
            results_[SweepKey{algorithm, n, ranks, layout}] =
                simulator.predict(
                    perfsim::Workload{algorithm, n,
                                      solvers::kDefaultBlock},
                    placement);
          }
        }
      }
    }
  }

  const perfsim::Prediction& at(perfsim::Algorithm algorithm, std::size_t n,
                                int ranks,
                                hw::LoadLayout layout =
                                    hw::LoadLayout::kFullLoad) const {
    return results_.at(SweepKey{algorithm, n, ranks, layout});
  }

 private:
  std::map<SweepKey, perfsim::Prediction> results_;
};

/// Runs the numeric-tier miniature of one paper cell through the real
/// solvers, runtime and white-box monitor, and prints the resulting
/// campaign rows. Demonstrates that the full pipeline is live, not just
/// the analytic replay.
inline void run_numeric_miniature(std::ostream& os) {
  os << "\n== numeric-tier miniature (executed on xmpi through the "
        "white-box monitor) ==\n";
  const hw::MachineSpec machine = hw::mini_cluster(/*nodes=*/8,
                                                   /*cores_per_socket=*/4);
  std::vector<monitor::JobResult> jobs;
  for (perfsim::Algorithm algorithm :
       {perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack}) {
    monitor::JobSpec spec;
    spec.algorithm = algorithm;
    spec.n = 512;
    spec.ranks = 16;
    spec.nb = 32;
    spec.repetitions = 1;
    jobs.push_back(monitor::run_job(machine, spec));
  }
  monitor::print_campaign_table(os, jobs);
}

/// Emits a CSV block under a marker so plotting scripts can scrape bench
/// output.
inline void csv_block_header(std::ostream& os, const std::string& name) {
  os << "\n== CSV " << name << " ==\n";
}

}  // namespace plin::bench
