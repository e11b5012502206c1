// Span-tracing overhead harness (`BENCH_prof.json`).
//
// Measures what src/prof costs the host when it is OFF (runtime toggle
// false), ON (recorder active on every rank), and — when the binary was
// built with -DPLIN_PROF=OFF — COMPILED OUT (every hook is an empty inline
// stub). Two workloads bracket the hot paths the recorder touches:
//
//   * spawn+collective at paper scale (576 ranks; 144 in --smoke): the
//     per-message / per-collective record cost in the xmpi runtime;
//   * a GEPP solve at n=1728 (576 in --smoke): the per-phase bracket cost
//     inside a compute-dominated solver.
//
// Simulated results are virtual-time, so tracing must not change them:
// `--check` exits nonzero if any duration or energy total differs between
// the off and on runs (bit-for-bit), or if the on-run produced no trace
// while tracing is compiled in.
//
// Flags (bench/harness.hpp): --smoke for smaller scales; --check as above.
// Everything lands in BENCH_prof.json (bench/harness.hpp schema). When
// compiled_in is 0 the binary was built -DPLIN_PROF=OFF and "off_s"
// measures the fully compiled-out hooks; "on_s" then measures the runtime
// toggle hitting empty stubs.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

#include "hwmodel/placement.hpp"
#include "prof/recorder.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

xmpi::RunConfig base_config(int ranks) {
  constexpr int kCoresPerSocket = 8;
  const int nodes = (ranks + 2 * kCoresPerSocket - 1) / (2 * kCoresPerSocket);
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(std::max(nodes, 1), kCoresPerSocket);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

/// The bench_xmpi acceptance workload: collective-dense, so every hop
/// crosses the runtime hooks the recorder instruments.
void spawn_collective(xmpi::Comm& comm) {
  double value = comm.rank() == 0 ? 1.5 : 0.0;
  for (int round = 0; round < 4; ++round) {
    comm.barrier();
    comm.bcast_value(value, /*root=*/0);
    (void)comm.allreduce_value(1.0, xmpi::ReduceOp::kSum);
  }
}

struct ProbeResult {
  std::string workload;
  int ranks = 0;
  double off_s = 0.0;
  double on_s = 0.0;
  // Simulated outputs captured from the last off/on run for --check.
  double off_duration = 0.0;
  double on_duration = 0.0;
  double off_energy = 0.0;
  double on_energy = 0.0;
  bool trace_present = false;

  double overhead() const {
    return off_s > 0.0 ? on_s / off_s - 1.0 : 0.0;
  }
};

template <typename Body>
ProbeResult measure(const char* name, int ranks, Body&& body) {
  ProbeResult result;
  result.workload = name;
  result.ranks = ranks;

  xmpi::RunConfig config = base_config(ranks);
  config.trace = false;
  result.off_s = bench::best_seconds([&] {
    const xmpi::RunResult run = xmpi::Runtime::run(config, body);
    result.off_duration = run.duration_s;
    result.off_energy = run.energy.total_j();
  });

  config.trace = true;
  result.on_s = bench::best_seconds([&] {
    const xmpi::RunResult run = xmpi::Runtime::run(config, body);
    result.on_duration = run.duration_s;
    result.on_energy = run.energy.total_j();
    result.trace_present = run.trace != nullptr;
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("prof", argc, argv);
  const bool smoke = h.smoke();
  const int collective_ranks = smoke ? 144 : 576;
  const std::size_t gepp_n = smoke ? 576 : 1728;
  const int gepp_ranks = smoke ? 16 : 64;

  std::vector<ProbeResult> results;
  results.push_back(
      measure("spawn+collective", collective_ranks, spawn_collective));
  results.push_back(measure("gepp_solve", gepp_ranks, [gepp_n](
                                                          xmpi::Comm& comm) {
    solvers::PdgesvOptions options;
    options.n = gepp_n;
    options.seed = 7;
    (void)solve_pdgesv(comm, options);
  }));

  std::printf("tracing compiled %s\n\n",
              prof::kCompiledIn ? "IN" : "OUT (-DPLIN_PROF=OFF)");
  std::printf("%-18s %6s | %12s %12s %9s\n", "workload", "ranks", "off s",
              "on s", "overhead");
  for (const ProbeResult& r : results) {
    std::printf("%-18s %6d | %12.6f %12.6f %8.2f%%\n", r.workload.c_str(),
                r.ranks, r.off_s, r.on_s, 100.0 * r.overhead());
  }
  std::printf("\n");

  h.record("compiled_in", prof::kCompiledIn ? 1.0 : 0.0, "bool",
           bench::Clock::kNone);
  for (const ProbeResult& r : results) {
    const std::string prefix = r.workload + "." + std::to_string(r.ranks);
    h.record(prefix + ".off_s", r.off_s, "s", bench::Clock::kHost);
    h.record(prefix + ".on_s", r.on_s, "s", bench::Clock::kHost);
    h.record(prefix + ".overhead", r.overhead(), "ratio", bench::Clock::kHost);
    h.record(prefix + ".off_duration_s", r.off_duration, "s",
             bench::Clock::kVirtual);
    h.record(prefix + ".on_duration_s", r.on_duration, "s",
             bench::Clock::kVirtual);
    h.record(prefix + ".off_energy_j", r.off_energy, "J",
             bench::Clock::kModeled);
    h.record(prefix + ".on_energy_j", r.on_energy, "J",
             bench::Clock::kModeled);
    h.gate(r.workload + "-off-on-identical",
           r.off_duration == r.on_duration && r.off_energy == r.on_energy,
           "off/on simulated duration and energy must be bit-identical");
    if (prof::kCompiledIn) {
      h.gate(r.workload + "-trace-present", r.trace_present,
             "the traced run must produce a trace");
    }
  }
  return h.finish();
}
