// Sparse CG harness: gates the memory-bound workload family's two
// load-bearing properties.
//
//   1. determinism — the campaign point (CG on the numeric tier, white-box
//      monitor, mini cluster) re-run across host worker counts (up to one
//      worker per rank) and the scalable collective schedules must
//      reproduce the solution bit pattern and iteration count exactly;
//      the worker count must not move the virtual duration or energy
//      either (the xmpi contract every solver honors).
//   2. memory-boundedness — at the smoke point the modeled SpMV DRAM-byte
//      term must dominate the flop term (that is the entire reason the
//      family exists next to the compute-bound dense verticals): with
//      bytes_per_flop ~10 and a fair-share of the socket bandwidth, the
//      time ratio mem/flop sits well above 1.
//
// Per family (stencil5 + banded) it also records duration, energy, CG
// iterations, nnz, the job's total data-message count and the scaled
// residual of the converged solve.
// Everything lands in BENCH_sparse.json (bench/harness.hpp schema).
//
// Sizes: CG iterates in O(sqrt(kappa)) sweeps of O(n) traffic, so the runs
// are far shorter than a dense factorization at the same n — and the RAPL
// counters the white-box monitor reads update only once a millisecond
// (msr/rapl_msr.hpp). The points are therefore sized so the simulated
// duration sits well past that quantum (n=64Ki smoke, ~3 ms; n=256Ki full,
// ~12 ms at 8 ranks); sub-millisecond CG jobs legitimately read ~0 J.
//
// Flags (bench/harness.hpp): --smoke for the CI size (n=64Ki) instead of
// the full n=256Ki; --check exits nonzero unless the runs are
// bit-identical, the dominance ratio is >= 1, every residual passes the
// campaign gate (1e-10), and, with --baseline, iteration counts, message
// counts and durations match the checked-in smoke baseline (all fully
// deterministic: counts exact, durations to 1e-5 relative).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "hwmodel/sparse.hpp"
#include "monitor/campaign.hpp"
#include "solvers/cg/cg.hpp"
#include "solvers/efficiency.hpp"
#include "sparse/generate.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

struct FamilyResult {
  sparse::SparseKind kind = sparse::SparseKind::kStencil5;
  std::size_t n = 0;
  int ranks = 0;
  double duration_s = 0.0;
  double energy_j = 0.0;
  double residual = 0.0;
  int iters = 0;
  std::size_t nnz = 0;
  std::uint64_t messages = 0;  // every data message of the job
};

FamilyResult run_family(sparse::SparseKind kind, std::size_t n, int ranks) {
  const hw::MachineSpec machine = hw::mini_cluster(/*nodes=*/2,
                                                   /*cores_per_socket=*/4);
  monitor::JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kCg;
  spec.matrix = kind;
  spec.n = n;
  spec.ranks = ranks;
  spec.seed = 1;
  spec.repetitions = 1;

  const monitor::JobResult job = monitor::run_job(machine, spec);
  FamilyResult r;
  r.kind = kind;
  r.n = n;
  r.ranks = ranks;
  r.duration_s = job.mean_duration_s();
  r.energy_j = job.mean_total_j();
  r.residual = job.worst_residual();
  r.iters = job.repetitions.at(0).cg_iters;
  r.nnz = job.repetitions.at(0).nnz;
  r.messages = job.repetitions.at(0).data_messages;
  return r;
}

struct CgRun {
  std::vector<double> x;
  int iters = 0;
  double duration_s = 0.0;
  double energy_j = 0.0;
};

CgRun run_once(const xmpi::RunConfig& config, std::size_t n) {
  CgRun out;
  const xmpi::RunResult run =
      xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
        solvers::CgOptions options;
        options.kind = sparse::SparseKind::kStencil5;
        options.n = n;
        options.seed = 1;
        const solvers::CgResult r = solve_pcg(comm, options);
        if (comm.rank() == 0) {
          out.x = r.x;
          out.iters = r.iterations;
        }
      });
  out.duration_s = run.duration_s;
  out.energy_j = run.energy.total_j();
  return out;
}

/// Re-runs the stencil5 point across host/schedule knobs; true iff every
/// run reproduces the reference solution bitwise (and the host-only knobs
/// also reproduce the virtual duration and energy exactly).
bool check_determinism(std::size_t n, int ranks, std::string* detail) {
  const hw::MachineSpec machine = hw::mini_cluster(2, 4);
  const auto config = [&](auto&&... set) {
    xmpi::RunConfig c;
    c.machine = machine;
    c.placement =
        hw::make_placement(ranks, hw::LoadLayout::kFullLoad, machine);
    (set(c), ...);
    return c;
  };

  const CgRun reference =
      run_once(config([](xmpi::RunConfig& c) { c.workers = 2; }), n);
  struct Variant {
    const char* name;
    CgRun run;
    bool host_only;  // must also match duration/energy bitwise
  };
  const Variant variants[] = {
      {"workers=5",
       run_once(config([](xmpi::RunConfig& c) { c.workers = 5; }), n), true},
      {"workers=ranks",
       run_once(config([ranks](xmpi::RunConfig& c) {
                  c.workers = static_cast<std::size_t>(ranks);
                }),
                n),
       true},
      {"scalable",
       run_once(config([](xmpi::RunConfig& c) {
                  c.transport.collectives = xmpi::CollectiveMode::kScalable;
                }),
                n),
       false},
  };
  for (const Variant& v : variants) {
    if (v.run.iters != reference.iters || v.run.x != reference.x) {
      *detail = std::string(v.name) + " diverged from the reference solve";
      return false;
    }
    if (v.host_only && (v.run.duration_s != reference.duration_s ||
                        v.run.energy_j != reference.energy_j)) {
      *detail = std::string(v.name) + " perturbed the simulated outputs";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("sparse", argc, argv);
  const bool smoke = h.smoke();
  const std::size_t n = smoke ? 65536 : 262144;
  constexpr int kRanks = 8;
  std::printf("bench_sparse: CG on CSR, %d ranks, n=%zu (%s)\n", kRanks, n,
              smoke ? "smoke" : "full");

  std::vector<FamilyResult> results;
  for (const sparse::SparseKind kind :
       {sparse::SparseKind::kStencil5, sparse::SparseKind::kBanded}) {
    const FamilyResult r = run_family(kind, n, kRanks);
    std::printf("  %-8s %8.4f ms %8.2f mJ | %4d iters | nnz %-8zu | "
                "residual %.2e\n",
                sparse::kind_token(kind), r.duration_s * 1e3,
                r.energy_j * 1e3, r.iters, r.nnz, r.residual);
    results.push_back(r);
  }

  // Memory-boundedness at the stencil smoke point: time ratio of the DRAM
  // term over the flop term for one modeled SpMV, with the fair bandwidth
  // share the 4 ranks of each socket get at full load.
  const hw::MachineSpec machine = hw::mini_cluster(2, 4);
  const std::size_t nnz = results.front().nnz;
  const double rows = static_cast<double>(n) / kRanks;
  const double bytes_per_flop = hw::csr_spmv_bytes_per_flop(
      static_cast<double>(nnz) / kRanks, rows);
  const double bw_share = machine.node.socket.dram_bandwidth_bs /
                          machine.node.socket.cores;
  const double dominance_ratio = bytes_per_flop *
                                 solvers::kSpmv.efficiency *
                                 machine.node.socket.core.peak_flops() /
                                 bw_share;
  std::printf("  SpMV %.2f bytes/flop, DRAM/flop time ratio %.2f\n",
              bytes_per_flop, dominance_ratio);

  std::string detail = "bit-identical across workers / collectives";
  const bool bit_identical = check_determinism(256, kRanks, &detail);
  std::printf("  determinism: %s\n", detail.c_str());

  char text[128];
  for (const FamilyResult& r : results) {
    const std::string k = sparse::kind_token(r.kind);
    h.record(k + "_n", static_cast<double>(r.n), "count", bench::Clock::kNone);
    h.record(k + "_ranks", r.ranks, "count", bench::Clock::kNone);
    h.record(k + "_s", r.duration_s, "s", bench::Clock::kVirtual,
             bench::rel(1e-5));
    h.record(k + "_j", r.energy_j, "J", bench::Clock::kModeled);
    h.record(k + "_residual", r.residual, "residual", bench::Clock::kNone);
    h.record(k + "_iters", r.iters, "count", bench::Clock::kNone,
             bench::exact());
    h.record(k + "_nnz", static_cast<double>(r.nnz), "count",
             bench::Clock::kNone);
    h.record(k + "_messages", static_cast<double>(r.messages), "count",
             bench::Clock::kNone, bench::exact());
    std::snprintf(text, sizeof(text),
                  "%s residual %.3g vs the campaign gate 1e-10", k.c_str(),
                  r.residual);
    h.gate(k + "-residual<=1e-10", r.residual <= 1e-10, text);
  }
  h.record("bytes_per_flop", bytes_per_flop, "ratio", bench::Clock::kNone);
  h.record("dominance_ratio", dominance_ratio, "ratio", bench::Clock::kNone);
  h.record("bit_identical", bit_identical ? 1.0 : 0.0, "bool",
           bench::Clock::kNone);
  h.gate("bit-identical", bit_identical, detail);
  std::snprintf(text, sizeof(text),
                "SpMV DRAM/flop time ratio %.2f (>= 1 when memory-bound)",
                dominance_ratio);
  h.gate("memory-bound", dominance_ratio >= 1.0, text);
  return h.finish();
}
