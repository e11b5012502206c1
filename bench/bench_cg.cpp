// CG fast-path harness: pins the virtual time of the sparse CG iteration
// (overlapped halo + one fused allreduce per iteration, docs/sparse.md)
// and gates its host SpMV kernel against the memory roofline.
//
//   1. virtual-time pin — the smoke point (stencil5, n=4Ki, 8 ranks) runs
//      at tolerance 1e-7: above relative residual 1e-6 the fused
//      recurrence is trusted and every iteration is a single round (the
//      residual-replacement guard in solvers/cg/cg.hpp re-measures below
//      that, which would re-add rounds a tolerance-1e-11 run pays). Its
//      iteration count, duration and total data-message count (halo,
//      collectives, setup negotiation and the final gather) are compared
//      exactly against the checked-in smoke baseline.
//   2. SpMV roofline fraction — sparse::spmv on a host wall-clock
//      microbenchmark over the blockdiag family (dense 64-wide rows,
//      n=64Ki, a working set well beyond the caches), next to a
//      pure-streaming probe over the same bytes (values + column indices)
//      that measures the host's attainable memory ceiling. SpMV at this
//      size is memory-bound by design, so the gate asks the kernel to
//      reach at least half of that ceiling: stream_s / spmv_s >= 0.5.
//
// It also replays the pinned point through the perfsim CG model and
// checks the predicted per-iteration time against the executed one within
// the existing 3x model envelope (both directions).
//
// Everything lands in BENCH_cg.json (bench/harness.hpp schema). The
// virtual-time records are fully deterministic and compared against the
// checked-in smoke baseline under --check (iterations exact, duration to
// 1e-5 relative); the host wall-clock SpMV timings are machine-dependent
// and only gated as a fraction of the stream probe, never baselined.
//
// Flags (bench/harness.hpp): --smoke for the CI size (pinned point n=4Ki)
// instead of n=16Ki; --check exits nonzero unless every gate above holds
// and, with --baseline, the deterministic records match.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/cg/cg.hpp"
#include "sparse/generate.hpp"
#include "support/stopwatch.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

constexpr int kRanks = 8;
constexpr double kTolerance = 1e-7;  // keeps the fused bulk at one round

struct CgRun {
  int iters = 0;
  double duration_s = 0.0;
  double iter_s = 0.0;  // duration / iterations
  std::uint64_t messages = 0;  // every data message of the solve
};

CgRun run_cg(std::size_t n) {
  const hw::MachineSpec machine = hw::mini_cluster(/*nodes=*/2,
                                                   /*cores_per_socket=*/4);
  xmpi::RunConfig config;
  config.machine = machine;
  config.placement =
      hw::make_placement(kRanks, hw::LoadLayout::kFullLoad, machine);
  CgRun out;
  const xmpi::RunResult run =
      xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
        solvers::CgOptions options;
        options.kind = sparse::SparseKind::kStencil5;
        options.n = n;
        options.seed = 1;
        options.tolerance = kTolerance;
        const solvers::CgResult r = solve_pcg(comm, options);
        if (comm.rank() == 0) out.iters = r.iterations;
      });
  out.duration_s = run.duration_s;
  out.iter_s = out.iters > 0 ? run.duration_s / out.iters : 0.0;
  out.messages = run.traffic.data_messages;
  return out;
}

/// Best-of-reps host seconds for `sweeps` back-to-back SpMVs (the result
/// sum is returned through *sink so the loop cannot be optimized away).
double time_spmv(const sparse::CsrMatrix& a, const std::vector<double>& x,
                 int sweeps, double* sink) {
  std::vector<double> y(a.rows);
  spmv(a, x, y);  // warm the caches and the page tables
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch wall;
    for (int s = 0; s < sweeps; ++s) spmv(a, x, y);
    best = std::min(best, wall.elapsed_s());
  }
  for (const double v : y) *sink += v;
  return best / sweeps;
}

/// Best-of-reps host seconds to stream the bytes one SpMV sweep reads
/// (values + column indices), with 8-lane integer sums — no arithmetic
/// bottleneck, so this is the host's attainable memory ceiling for the
/// kernel working set.
double time_stream_floor(const sparse::CsrMatrix& a, std::uint64_t* sink) {
  const std::size_t val_words = a.values.size();
  const std::size_t col_words = a.col_idx.size() / 2;  // u32 pairs as u64
  const unsigned char* vals =
      reinterpret_cast<const unsigned char*>(a.values.data());
  const unsigned char* cols =
      reinterpret_cast<const unsigned char*>(a.col_idx.data());
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch wall;
    std::uint64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (const auto& [base, words] :
         {std::pair{vals, val_words}, std::pair{cols, col_words}}) {
      std::size_t w = 0;
      for (; w + 8 <= words; w += 8) {
        for (int l = 0; l < 8; ++l) {
          std::uint64_t word;
          std::memcpy(&word, base + (w + l) * 8, 8);
          acc[l] += word;
        }
      }
    }
    for (const std::uint64_t v : acc) *sink += v;
    best = std::min(best, wall.elapsed_s());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("cg", argc, argv);
  const bool smoke = h.smoke();
  const std::size_t n = smoke ? 4096 : 16384;
  std::printf("bench_cg: stencil5 n=%zu, %d ranks, tol %g (%s)\n", n, kRanks,
              kTolerance, smoke ? "smoke" : "full");

  // --- 1. virtual-time pin ------------------------------------------------
  const CgRun fused = run_cg(n);
  std::printf("  fused:    %8.3f us/iter (%d iters)\n", fused.iter_s * 1e6,
              fused.iters);

  // --- 2. SpMV roofline fraction (host wall clock) -----------------------
  const std::size_t spmv_n = 65536;
  const sparse::CsrMatrix a =
      sparse::generate_matrix(sparse::SparseKind::kBlockDiag, 1, spmv_n);
  std::vector<double> x(spmv_n);
  for (std::size_t i = 0; i < spmv_n; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 0.11) + 1.5;
  }
  double sink = 0.0;
  const double spmv_s = time_spmv(a, x, /*sweeps=*/8, &sink);
  std::uint64_t stream_sink = 0;
  const double stream_s = time_stream_floor(a, &stream_sink);
  const double stream_frac = spmv_s > 0.0 ? stream_s / spmv_s : 0.0;
  std::printf("  spmv n=%zu nnz=%zu: %.3f ms, stream probe %.3f ms -> "
              "%.2f of the ceiling%s\n",
              spmv_n, a.nnz(), spmv_s * 1e3, stream_s * 1e3, stream_frac,
              sink == 1e300 && stream_sink == 1 ? "!" : "");

  // --- 3. perfsim replay envelope ----------------------------------------
  const hw::MachineSpec machine = hw::mini_cluster(2, 4);
  const perfsim::Simulator simulator(machine);
  perfsim::Workload workload;
  workload.algorithm = perfsim::Algorithm::kCg;
  workload.matrix = sparse::SparseKind::kStencil5;
  workload.n = n;
  workload.tolerance = kTolerance;
  const hw::Placement placement =
      hw::make_placement(kRanks, hw::LoadLayout::kFullLoad, machine);
  const perfsim::Prediction prediction =
      simulator.predict(workload, placement);
  const int model_iters =
      perfsim::cg_model_iters(workload.matrix, workload.tolerance);
  const double predicted_iter_s =
      model_iters > 0 ? prediction.duration_s / model_iters : 0.0;
  const double model_ratio =
      fused.iter_s > 0.0 ? predicted_iter_s / fused.iter_s : 0.0;
  std::printf("  replay:   %8.3f us/iter predicted (%.2fx executed)\n",
              predicted_iter_s * 1e6, model_ratio);

  h.record("n", static_cast<double>(n), "count", bench::Clock::kNone);
  h.record("ranks", kRanks, "count", bench::Clock::kNone);
  h.record("fused_iters", fused.iters, "count", bench::Clock::kNone,
           bench::exact());
  h.record("fused_s", fused.duration_s, "s", bench::Clock::kVirtual,
           bench::rel(1e-5));
  h.record("fused_iter_s", fused.iter_s, "s", bench::Clock::kVirtual);
  h.record("fused_messages", static_cast<double>(fused.messages), "count",
           bench::Clock::kNone, bench::exact());
  h.record("spmv_s", spmv_s, "s", bench::Clock::kHost);
  h.record("spmv_stream_s", stream_s, "s", bench::Clock::kHost);
  h.record("spmv_stream_frac", stream_frac, "ratio", bench::Clock::kHost);
  h.record("predicted_iter_s", predicted_iter_s, "s", bench::Clock::kVirtual);
  h.record("model_ratio", model_ratio, "ratio", bench::Clock::kVirtual);

  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "spmv reaches %.2f of the stream probe (floor 0.5)",
                stream_frac);
  h.gate("spmv-stream-frac>=0.5", stream_frac >= 0.5, detail);
  std::snprintf(detail, sizeof(detail),
                "perfsim per-iteration prediction %.2fx the executed one "
                "(envelope 3x)",
                model_ratio);
  h.gate("model-within-3x",
         !(model_ratio > 3.0 || (model_ratio > 0.0 && model_ratio < 1.0 / 3.0)),
         detail);
  return h.finish();
}
