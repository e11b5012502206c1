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
// iterations, nnz and the scaled residual of the converged solve.
// Everything lands in BENCH_sparse.json (schema powerlin-bench-sparse/v1).
//
// Sizes: CG iterates in O(sqrt(kappa)) sweeps of O(n) traffic, so the runs
// are far shorter than a dense factorization at the same n — and the RAPL
// counters the white-box monitor reads update only once a millisecond
// (msr/rapl_msr.hpp). The points are therefore sized so the simulated
// duration sits well past that quantum (n=64Ki smoke, ~3 ms; n=256Ki full,
// ~12 ms at 8 ranks); sub-millisecond CG jobs legitimately read ~0 J.
//
// Flags:
//   --smoke           CI sizes (n=64Ki) instead of the full n=256Ki
//   --check           exit nonzero unless the runs are bit-identical, the
//                     dominance ratio is >= 1, every residual passes the
//                     campaign gate (1e-10), and — when --baseline is given
//                     — iteration counts and durations match the checked-in
//                     smoke baseline (both are fully deterministic)
//   --out=PATH        JSON output path (default BENCH_sparse.json)
//   --baseline=PATH   checked-in BENCH_sparse_smoke.json to compare against
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

bool write_json(const std::string& path, bool smoke,
                const std::vector<FamilyResult>& results,
                double bytes_per_flop, double dominance_ratio,
                bool bit_identical) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"powerlin-bench-sparse/v1\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  for (const FamilyResult& r : results) {
    const std::string k = sparse::kind_token(r.kind);
    out << "  \"" << k << "_n\": " << r.n << ",\n"
        << "  \"" << k << "_ranks\": " << r.ranks << ",\n"
        << "  \"" << k << "_s\": " << fmt(r.duration_s) << ",\n"
        << "  \"" << k << "_j\": " << fmt(r.energy_j) << ",\n"
        << "  \"" << k << "_residual\": " << fmt(r.residual) << ",\n"
        << "  \"" << k << "_iters\": " << r.iters << ",\n"
        << "  \"" << k << "_nnz\": " << r.nnz << ",\n";
  }
  out << "  \"bytes_per_flop\": " << fmt(bytes_per_flop) << ",\n"
      << "  \"dominance_ratio\": " << fmt(dominance_ratio) << ",\n"
      << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
      << "\n}\n";
  return static_cast<bool>(out.flush());
}

/// Pulls one flat "key": <number> field out of a previous report (same
/// no-parser shortcut as bench_mixed: we wrote the file ourselves).
double baseline_field(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  if (!in) return -1.0;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string key = "\"" + name + "\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  std::string out_path = "BENCH_sparse.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "error: unknown argument '%s' (expected --smoke --check "
                   "--out=PATH --baseline=PATH)\n",
                   argv[i]);
      return 2;
    }
  }

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

  std::string detail;
  const bool bit_identical = check_determinism(256, kRanks, &detail);
  std::printf("  determinism: %s\n",
              bit_identical ? "bit-identical across workers / collectives"
                            : detail.c_str());

  if (!write_json(out_path, smoke, results, bytes_per_flop, dominance_ratio,
                  bit_identical)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (check) {
    bool ok = true;
    if (!bit_identical) {
      std::fprintf(stderr, "FAIL: %s\n", detail.c_str());
      ok = false;
    }
    if (dominance_ratio < 1.0) {
      std::fprintf(stderr,
                   "FAIL: SpMV flop term dominates (ratio %.2f < 1): the "
                   "family is not memory-bound\n",
                   dominance_ratio);
      ok = false;
    }
    for (const FamilyResult& r : results) {
      if (r.residual > 1e-10) {
        std::fprintf(stderr, "FAIL: %s residual %.3g above the campaign "
                             "gate 1e-10\n",
                     sparse::kind_token(r.kind), r.residual);
        ok = false;
      }
    }
    if (!baseline_path.empty()) {
      for (const FamilyResult& r : results) {
        const std::string k = sparse::kind_token(r.kind);
        const double base_iters = baseline_field(baseline_path, k + "_iters");
        const double base_s = baseline_field(baseline_path, k + "_s");
        if (base_iters < 0.0 || base_s < 0.0) {
          std::fprintf(stderr, "FAIL: no %s fields in %s\n", k.c_str(),
                       baseline_path.c_str());
          ok = false;
          continue;
        }
        // Both are deterministic: iterations exact, duration to the %.6g
        // precision the baseline file stores.
        if (static_cast<int>(base_iters) != r.iters) {
          std::fprintf(stderr,
                       "FAIL: %s iterations %d != baseline %d\n", k.c_str(),
                       r.iters, static_cast<int>(base_iters));
          ok = false;
        }
        if (std::fabs(r.duration_s - base_s) > 1e-5 * base_s) {
          std::fprintf(stderr,
                       "FAIL: %s duration %.6g s != baseline %.6g s\n",
                       k.c_str(), r.duration_s, base_s);
          ok = false;
        }
      }
      if (ok) std::printf("check ok: matches %s\n", baseline_path.c_str());
    }
    if (!ok) return 1;
  }
  return 0;
}
