// Mixed-precision GEPP harness: gates the fp32-factorize + fp64-refine
// work against the full-fp64 baseline.
//
// For each configured matrix size it runs the same campaign point (GEPP on
// the numeric tier, white-box monitor, mini cluster) twice — once at fp64,
// once mixed — and reports per size:
//
//   1. time-to-solution   — simulated duration of either run, and the
//      mixed-over-fp64 speedup (fp32 factorization runs against the doubled
//      fp32 peak with halved DRAM traffic; refinement adds fp64 sweeps).
//   2. energy-to-solution — modeled PKG+DRAM joules from the white-box
//      monitor, and the fp64-over-mixed energy ratio.
//   3. accuracy           — scaled residuals of both solutions; mixed must
//      land within 10x of the fp64 baseline (it normally matches, since
//      refinement iterates to the same n*eps64-scaled tolerance).
//   4. refine_iters / fell_back — the SLATE-style iteration count.
//
// Everything lands in BENCH_mixed.json (bench/harness.hpp schema).
//
// The campaign point is 4 ranks on a 2-node mini cluster with nb=64: a
// compute-bound shape where the precision of the trailing update matters.
// At high rank-to-size ratios the per-column pivot collectives (latency,
// precision-independent) dominate the critical path and the fp32 advantage
// washes out — that regime is measured, not hidden: bench_breakdown and
// the campaign grid cover it.
//
// Flags (bench/harness.hpp): --smoke for the CI sizes (n=512, 768) instead
// of the full n >= 1024; --check exits nonzero unless every size holds the
// residual 10x bound and the speedup floor (1.2x smoke, 1.5x time + 1.4x
// energy full), and, with --baseline, the worst residual ratio does not
// regress >50% over the checked-in smoke baseline.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

#include "hwmodel/machine.hpp"
#include "monitor/campaign.hpp"
#include "perfsim/prediction.hpp"

namespace {

using namespace plin;

struct SizeResult {
  std::size_t n = 0;
  int ranks = 0;
  double fp64_s = 0.0;
  double mixed_s = 0.0;
  double speedup = 0.0;       // fp64_s / mixed_s
  double fp64_j = 0.0;
  double mixed_j = 0.0;
  double energy_ratio = 0.0;  // fp64_j / mixed_j
  double fp64_residual = 0.0;
  double mixed_residual = 0.0;
  double residual_ratio = 0.0;  // mixed_residual / fp64_residual
  int refine_iters = 0;
  bool fell_back = false;
};

SizeResult run_size(std::size_t n, int ranks) {
  const hw::MachineSpec machine = hw::mini_cluster(/*nodes=*/2,
                                                   /*cores_per_socket=*/4);
  monitor::JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = n;
  spec.ranks = ranks;
  spec.seed = 1;
  spec.nb = 64;
  spec.repetitions = 1;

  SizeResult r;
  r.n = n;
  r.ranks = ranks;

  spec.precision = perfsim::Precision::kFp64;
  const monitor::JobResult fp64 = monitor::run_job(machine, spec);
  r.fp64_s = fp64.mean_duration_s();
  r.fp64_j = fp64.mean_total_j();
  r.fp64_residual = fp64.worst_residual();

  spec.precision = perfsim::Precision::kMixed;
  const monitor::JobResult mixed = monitor::run_job(machine, spec);
  r.mixed_s = mixed.mean_duration_s();
  r.mixed_j = mixed.mean_total_j();
  r.mixed_residual = mixed.worst_residual();
  r.refine_iters = mixed.repetitions.at(0).refine_iters;
  r.fell_back = mixed.repetitions.at(0).fell_back;

  r.speedup = r.mixed_s > 0.0 ? r.fp64_s / r.mixed_s : 0.0;
  r.energy_ratio = r.mixed_j > 0.0 ? r.fp64_j / r.mixed_j : 0.0;
  r.residual_ratio =
      r.fp64_residual > 0.0 ? r.mixed_residual / r.fp64_residual : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("mixed", argc, argv);
  const bool smoke = h.smoke();
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{512, 768}
            : std::vector<std::size_t>{1024, 1536, 2048};
  constexpr int kRanks = 4;
  std::printf("bench_mixed: GEPP fp64 vs mixed, %d ranks (%s)\n", kRanks,
              smoke ? "smoke" : "full");

  std::vector<SizeResult> results;
  for (const std::size_t n : sizes) {
    const SizeResult r = run_size(n, kRanks);
    std::printf("  n=%-5zu fp64 %8.4f s %8.2f J | mixed %8.4f s %8.2f J | "
                "%.2fx time %.2fx energy | iters=%d%s residual %.2e vs "
                "%.2e\n",
                r.n, r.fp64_s, r.fp64_j, r.mixed_s, r.mixed_j, r.speedup,
                r.energy_ratio, r.refine_iters,
                r.fell_back ? " (FELL BACK)" : "", r.mixed_residual,
                r.fp64_residual);
    results.push_back(r);
  }

  double worst_ratio = 0.0;
  double min_speedup = 0.0;
  double min_energy_ratio = 0.0;
  for (const SizeResult& r : results) {
    if (r.residual_ratio > worst_ratio) worst_ratio = r.residual_ratio;
    if (min_speedup == 0.0 || r.speedup < min_speedup) {
      min_speedup = r.speedup;
    }
    if (min_energy_ratio == 0.0 || r.energy_ratio < min_energy_ratio) {
      min_energy_ratio = r.energy_ratio;
    }
  }
  const double speedup_floor = smoke ? 1.2 : 1.5;
  const double energy_floor = smoke ? 1.0 : 1.4;
  for (const SizeResult& r : results) {
    const std::string prefix = std::string("n") + std::to_string(r.n);
    h.record(prefix + ".ranks", r.ranks, "count", bench::Clock::kNone);
    h.record(prefix + ".fp64_s", r.fp64_s, "s", bench::Clock::kVirtual);
    h.record(prefix + ".mixed_s", r.mixed_s, "s", bench::Clock::kVirtual);
    h.record(prefix + ".speedup", r.speedup, "ratio", bench::Clock::kVirtual);
    h.record(prefix + ".fp64_j", r.fp64_j, "J", bench::Clock::kModeled);
    h.record(prefix + ".mixed_j", r.mixed_j, "J", bench::Clock::kModeled);
    h.record(prefix + ".energy_ratio", r.energy_ratio, "ratio",
             bench::Clock::kModeled);
    h.record(prefix + ".fp64_residual", r.fp64_residual, "residual",
             bench::Clock::kNone);
    h.record(prefix + ".mixed_residual", r.mixed_residual, "residual",
             bench::Clock::kNone);
    h.record(prefix + ".residual_ratio", r.residual_ratio, "ratio",
             bench::Clock::kNone);
    h.record(prefix + ".refine_iters", r.refine_iters, "count",
             bench::Clock::kNone);
    h.record(prefix + ".fell_back", r.fell_back ? 1.0 : 0.0, "bool",
             bench::Clock::kNone);

    char detail[128];
    h.gate(prefix + "-no-fallback", !r.fell_back,
           r.fell_back ? "fell back to fp64" : "refined in mixed precision");
    std::snprintf(detail, sizeof(detail),
                  "mixed residual %.3g is %.1fx the fp64 baseline (10x bound)",
                  r.mixed_residual, r.residual_ratio);
    h.gate(prefix + "-residual<=10x", r.residual_ratio <= 10.0, detail);
    std::snprintf(detail, sizeof(detail), "speedup %.2fx vs the %.1fx floor",
                  r.speedup, speedup_floor);
    h.gate(prefix + "-speedup", r.speedup >= speedup_floor, detail);
    std::snprintf(detail, sizeof(detail),
                  "energy ratio %.2fx vs the %.1fx floor", r.energy_ratio,
                  energy_floor);
    h.gate(prefix + "-energy-ratio", r.energy_ratio >= energy_floor, detail);
  }
  h.record("min_speedup", min_speedup, "ratio", bench::Clock::kVirtual);
  h.record("min_energy_ratio", min_energy_ratio, "ratio",
           bench::Clock::kModeled);
  // Headroom for host rounding drift; a real accuracy regression
  // (refinement converging to a worse defect) blows straight through 1.5x.
  h.record("worst_residual_ratio", worst_ratio, "ratio", bench::Clock::kNone,
           bench::at_most(1.5));
  return h.finish();
}
