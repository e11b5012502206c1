// Kernel perf-regression harness.
//
// Sweeps GEMM shapes (square, panel-shaped, KC-thin trailing-update) and
// the triangular solves over BOTH kernel paths — the retained naive
// reference and the cache-blocked packed engine — at BOTH precisions (fp64
// and the fp32 tier the mixed GEPP factorization runs on), cross-checks
// their results, prints a GFLOP/s table and writes `BENCH_kernels.json`
// (bench/harness.hpp schema) so kernel performance has a trajectory. The
// `ime_update` records time IMeP's column update at the n = 1536, 16-rank
// shape: the per-level daxpy sweep against the deferred daxpy_chain, in
// GFLOP/s and as a fraction of a measured one-core FMA peak. The `generate`
// records time the n = 1536 system generator: one system_entry call per
// element against the row generator system_row, in ns per entry.
//
// Flags (bench/harness.hpp): --smoke for tiny sizes; --check exits nonzero
// unless blocked >= naive GFLOP/s on the largest square GEMM shape. A
// naive/blocked divergence, a difference between the per-level and the
// deferred IMe update, or a bit where system_row and system_entry differ
// fails the run with or without --check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

#include "linalg/generate.hpp"
#include "linalg/kernel_config.hpp"
#include "linalg/kernels.hpp"
#include "support/rng.hpp"

namespace {

using namespace plin;

template <typename T>
linalg::BasicMatrix<T> random_matrix(std::size_t rows, std::size_t cols,
                                     std::uint64_t seed) {
  linalg::BasicMatrix<T> m(rows, cols);
  Rng rng(seed);
  for (T& v : m.flat()) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  return m;
}

template <typename T>
constexpr const char* precision_name() {
  return sizeof(T) == sizeof(double) ? "fp64" : "fp32";
}

/// Naive-vs-blocked divergence envelope: the paths may round partial sums
/// differently, so the bound scales with the reduction length and the
/// scalar's epsilon; anything beyond it is a real bug.
template <typename T>
double diff_budget(std::size_t k) {
  const double unit = sizeof(T) == sizeof(double) ? 1e-12 : 1e-3;
  return unit * static_cast<double>(k) * 16.0;
}

/// Cheap shapes are sampled more often than half-second ones.
constexpr bench::Reps kKernelReps{0.05, 8, 2, 0.5, 1};

struct GemmResult {
  std::string shape;
  const char* precision = "fp64";
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  double gflops_naive = 0.0;
  double gflops_blocked = 0.0;
  double max_abs_diff = 0.0;
  double diff_limit = 0.0;

  double speedup() const {
    return gflops_naive > 0.0 ? gflops_blocked / gflops_naive : 0.0;
  }
};

template <typename T>
GemmResult measure_gemm(const std::string& shape, std::size_t m, std::size_t n,
                        std::size_t k) {
  const linalg::BasicMatrix<T> a = random_matrix<T>(m, k, 101 + m + n + k);
  const linalg::BasicMatrix<T> b = random_matrix<T>(k, n, 202 + m + n + k);
  const linalg::BasicMatrix<T> c0 = random_matrix<T>(m, n, 303 + m + n + k);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);

  linalg::BasicMatrix<T> c_naive = c0;
  linalg::BasicMatrix<T> c_blocked = c0;
  linalg::gemm_naive<T>(T(1), a.view(), b.view(), T(0.5), c_naive.view());
  linalg::gemm_blocked<T>(T(1), a.view(), b.view(), T(0.5), c_blocked.view());
  double diff = 0.0;
  for (std::size_t i = 0; i < m * n; ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(c_naive.flat()[i]) -
                                    static_cast<double>(c_blocked.flat()[i])));
  }

  linalg::BasicMatrix<T> c = c0;
  const double t_naive = bench::best_seconds(
      [&] {
        linalg::gemm_naive<T>(T(1), a.view(), b.view(), T(0.5), c.view());
        bench::keep(c.flat().data());
      },
      kKernelReps);
  const double t_blocked = bench::best_seconds(
      [&] {
        linalg::gemm_blocked<T>(T(1), a.view(), b.view(), T(0.5), c.view());
        bench::keep(c.flat().data());
      },
      kKernelReps);

  GemmResult result;
  result.shape = shape;
  result.precision = precision_name<T>();
  result.m = m;
  result.n = n;
  result.k = k;
  result.gflops_naive = flops / t_naive * 1e-9;
  result.gflops_blocked = flops / t_blocked * 1e-9;
  result.max_abs_diff = diff;
  result.diff_limit = diff_budget<T>(k);
  return result;
}

struct TrsmResult {
  std::string kernel;
  const char* precision = "fp64";
  std::size_t n = 0;
  std::size_t m = 0;
  double gflops_naive = 0.0;
  double gflops_blocked = 0.0;
  double max_abs_diff = 0.0;
};

template <typename T>
TrsmResult measure_trsm_lower(std::size_t n, std::size_t m) {
  linalg::BasicMatrix<T> l = random_matrix<T>(n, n, 404 + n);
  // Scale the strict lower triangle down so the solve is well conditioned
  // (unit-lower with O(1) entries grows the solution exponentially in n,
  // which would make the naive/blocked cross-check meaningless).
  const T scale = T(1) / static_cast<T>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l(i, j) *= scale;
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = T(0);
    l(i, i) = T(1);
  }
  const linalg::BasicMatrix<T> b0 = random_matrix<T>(n, m, 505 + n);
  const double flops = static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(m);

  linalg::BasicMatrix<T> x_naive = b0;
  linalg::BasicMatrix<T> x_blocked = b0;
  linalg::trsm_lower_unit_naive<T>(l.view(), x_naive.view());
  linalg::trsm_lower_unit_blocked<T>(l.view(), x_blocked.view());
  double diff = 0.0;
  for (std::size_t i = 0; i < n * m; ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(x_naive.flat()[i]) -
                                    static_cast<double>(x_blocked.flat()[i])));
  }

  linalg::BasicMatrix<T> x(n, m);
  const double t_naive = bench::best_seconds(
      [&] {
        x = b0;
        linalg::trsm_lower_unit_naive<T>(l.view(), x.view());
        bench::keep(x.flat().data());
      },
      kKernelReps);
  const double t_blocked = bench::best_seconds(
      [&] {
        x = b0;
        linalg::trsm_lower_unit_blocked<T>(l.view(), x.view());
        bench::keep(x.flat().data());
      },
      kKernelReps);

  TrsmResult result;
  result.kernel = sizeof(T) == sizeof(double) ? "dtrsm_lower_unit"
                                              : "strsm_lower_unit";
  result.precision = precision_name<T>();
  result.n = n;
  result.m = m;
  result.gflops_naive = flops / t_naive * 1e-9;
  result.gflops_blocked = flops / t_blocked * 1e-9;
  result.max_abs_diff = diff;
  return result;
}

// The widest native lane, as the kernel library's micro-kernels see it.
#if defined(__AVX512F__)
typedef double Lane __attribute__((vector_size(64), aligned(8)));
#elif defined(__AVX__)
typedef double Lane __attribute__((vector_size(32), aligned(8)));
#else
typedef double Lane __attribute__((vector_size(16), aligned(8)));
#endif
constexpr std::size_t kLaneDoubles = sizeof(Lane) / sizeof(double);

/// One-core FMA peak in GFLOP/s: independent multiply-add chains on the
/// widest vector lanes, best of three.
double fma_peak_gflops(bool smoke) {
  constexpr int kChains = 16;  // > FMA latency x ports on current cores
  const long iters = smoke ? 1L << 20 : 1L << 24;
  volatile double seed_a = 0.999999999;
  volatile double seed_b = 1e-9;
  Lane a;
  Lane b;
  for (std::size_t l = 0; l < kLaneDoubles; ++l) {
    a[l] = seed_a;
    b[l] = seed_b;
  }
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    Lane acc[kChains];
    for (int j = 0; j < kChains; ++j) acc[j] = a + static_cast<double>(j);
    const double seconds = bench::seconds([&] {
      for (long it = 0; it < iters; ++it) {
        for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * a + b;
      }
    });
    Lane sum = {};
    for (int j = 0; j < kChains; ++j) sum += acc[j];
    bench::keep(sum);
    best = std::max(best, 2.0 * kChains * kLaneDoubles *
                              static_cast<double>(iters) / seconds);
  }
  return best * 1e-9;
}

struct ImeUpdateResult {
  std::size_t rows = 0;    // column length (n)
  std::size_t cols = 0;    // local columns of one rank
  std::size_t levels = 0;  // levels deferred into one flush
  double gflops_sweep = 0.0;
  double gflops_chain = 0.0;
  double max_abs_diff = 0.0;
  bool exact = false;  // bit-identical results
};

/// IMeP's column update over one block of deferred levels. The sweep runs
/// the levels one after another, each a daxpy over every local column; the
/// chain streams each column once per row tile for all of them, as
/// solve_imep flushes its ring. Both must agree bit for bit.
ImeUpdateResult measure_ime_update(std::size_t rows, std::size_t cols,
                                   std::size_t levels) {
  constexpr std::size_t kTileRows = 256;  // solve_imep's flush tile
  const linalg::Matrix pivots = random_matrix<double>(levels, rows, 606);
  const linalg::Matrix columns0 = random_matrix<double>(cols, rows, 707);
  // Small factors keep the repeatedly updated columns bounded.
  linalg::Matrix alphas = random_matrix<double>(cols, levels, 808);
  for (double& v : alphas.flat()) v *= 1e-3;
  std::vector<const double*> xs(levels);
  for (std::size_t p = 0; p < levels; ++p) xs[p] = pivots.row(p).data();

  const auto sweep = [&](linalg::Matrix& m) {
    for (std::size_t p = 0; p < levels; ++p) {
      for (std::size_t k = 0; k < cols; ++k) {
        linalg::daxpy(alphas(k, p), pivots.row(p), m.row(k));
      }
    }
  };
  const auto chain = [&](linalg::Matrix& m) {
    for (std::size_t r0 = 0; r0 < rows; r0 += kTileRows) {
      const std::size_t r1 = std::min(rows, r0 + kTileRows);
      for (std::size_t k = 0; k < cols; ++k) {
        linalg::daxpy_chain(alphas.row(k), xs, m.row(k), r0, r1);
      }
    }
  };

  linalg::Matrix by_sweep = columns0;
  linalg::Matrix by_chain = columns0;
  sweep(by_sweep);
  chain(by_chain);
  double diff = 0.0;
  for (std::size_t i = 0; i < by_sweep.flat().size(); ++i) {
    diff = std::max(diff, std::fabs(by_sweep.flat()[i] - by_chain.flat()[i]));
  }
  const bool exact = std::memcmp(by_sweep.flat().data(), by_chain.flat().data(),
                                 by_sweep.size_bytes()) == 0;

  // One timed body runs several blocks, so a sample is well above timer
  // resolution.
  constexpr int kBlocks = 16;
  const double flops = 2.0 * kBlocks * static_cast<double>(rows) *
                       static_cast<double>(cols) * static_cast<double>(levels);
  linalg::Matrix m = columns0;
  const double t_sweep = bench::best_seconds(
      [&] {
        for (int b = 0; b < kBlocks; ++b) sweep(m);
        bench::keep(m.flat().data());
      },
      kKernelReps);
  const double t_chain = bench::best_seconds(
      [&] {
        for (int b = 0; b < kBlocks; ++b) chain(m);
        bench::keep(m.flat().data());
      },
      kKernelReps);

  ImeUpdateResult result;
  result.rows = rows;
  result.cols = cols;
  result.levels = levels;
  result.gflops_sweep = flops / t_sweep * 1e-9;
  result.gflops_chain = flops / t_chain * 1e-9;
  result.max_abs_diff = diff;
  result.exact = exact;
  return result;
}

struct GenerateResult {
  std::size_t n = 0;
  double entry_ns = 0.0;  // per element, one system_entry call each
  double row_ns = 0.0;    // per element, one system_row call per row
  bool exact = false;     // bit-identical matrices
};

/// The n x n generated system filled element by element through
/// system_entry and row by row through system_row. Both must agree bit for
/// bit.
GenerateResult measure_generate(std::size_t n) {
  constexpr std::uint64_t kSeed = 1;
  linalg::Matrix by_entry(n, n);
  linalg::Matrix by_row(n, n);
  const auto fill_entries = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        by_entry(i, j) = linalg::system_entry(kSeed, n, i, j);
      }
    }
    bench::keep(by_entry.flat().data());
  };
  const auto fill_rows = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      linalg::system_row(kSeed, n, i, 0, by_row.row(i));
    }
    bench::keep(by_row.flat().data());
  };
  const double entries = static_cast<double>(n) * static_cast<double>(n);
  GenerateResult result;
  result.n = n;
  result.entry_ns = bench::best_seconds(fill_entries, kKernelReps) / entries *
                    1e9;
  result.row_ns = bench::best_seconds(fill_rows, kKernelReps) / entries * 1e9;
  result.exact = std::memcmp(by_entry.flat().data(), by_row.flat().data(),
                             by_entry.size_bytes()) == 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("kernels", argc, argv);

  // Shapes mirror how the solvers drive GEMM: square (whole-problem),
  // panel-shaped (tall-skinny C, the L21 * U12 panel product) and KC-thin
  // trailing updates (rank-nb, the dgetrf hot loop).
  const std::vector<std::size_t> sizes =
      h.smoke() ? std::vector<std::size_t>{64, 128, 192}
                : std::vector<std::size_t>{128, 256, 384, 512};
  const std::size_t nb = 64;

  std::vector<GemmResult> gemm;
  for (std::size_t s : sizes) {
    gemm.push_back(measure_gemm<double>("square", s, s, s));
    gemm.push_back(measure_gemm<float>("square", s, s, s));
  }
  for (std::size_t s : sizes) {
    if (s <= nb) continue;
    gemm.push_back(measure_gemm<double>("panel", s, nb, nb));
    gemm.push_back(measure_gemm<float>("panel", s, nb, nb));
    gemm.push_back(measure_gemm<double>("trailing", s, s, nb));
    gemm.push_back(measure_gemm<float>("trailing", s, s, nb));
  }

  std::vector<TrsmResult> trsm;
  const std::size_t trsm_n = sizes.back();
  trsm.push_back(measure_trsm_lower<double>(trsm_n, trsm_n));
  trsm.push_back(measure_trsm_lower<float>(trsm_n, trsm_n));

  // IMe at n = 1536 on 16 ranks: one master and 15 slaves own 1536 / 16 =
  // 96 columns each, and each flush covers 8 levels.
  const ImeUpdateResult ime = measure_ime_update(1536, 96, 8);
  const double peak_gflops = fma_peak_gflops(h.smoke());
  // The dense solvers' and the reference residual's generator at e2e's
  // largest dense size.
  const GenerateResult gen = measure_generate(1536);

  std::printf("%-23s %6s %6s %6s | %12s %12s %8s %12s\n", "kernel/shape", "m",
              "n", "k", "naive GF/s", "blocked GF/s", "speedup",
              "max|diff|");
  const GemmResult* largest_square = nullptr;
  bool numerics_ok = true;
  for (const GemmResult& r : gemm) {
    const bool fp64 = std::strcmp(r.precision, "fp64") == 0;
    std::printf("%s/%-12s %4s %6zu %6zu %6zu | %12.3f %12.3f %7.2fx "
                "%12.3g\n",
                fp64 ? "dgemm" : "sgemm", r.shape.c_str(), r.precision, r.m,
                r.n, r.k, r.gflops_naive, r.gflops_blocked, r.speedup(),
                r.max_abs_diff);
    if (r.max_abs_diff > r.diff_limit) numerics_ok = false;
    if (fp64 && r.shape == "square" &&
        (largest_square == nullptr || r.m > largest_square->m)) {
      largest_square = &r;
    }
  }
  for (const TrsmResult& r : trsm) {
    std::printf("%-18s %4s %6zu %6zu %6s | %12.3f %12.3f %7.2fx %12.3g\n",
                r.kernel.c_str(), r.precision, r.n, r.m, "-", r.gflops_naive,
                r.gflops_blocked, r.gflops_blocked / r.gflops_naive,
                r.max_abs_diff);
  }
  std::printf("%-18s %4s %6zu %6zu %6zu | %12.3f %12.3f %7.2fx %12.3g\n",
              "ime_update", "fp64", ime.rows, ime.cols, ime.levels,
              ime.gflops_sweep, ime.gflops_chain,
              ime.gflops_chain / ime.gflops_sweep, ime.max_abs_diff);
  std::printf("(ime_update: per-level daxpy sweep vs deferred daxpy_chain; "
              "FMA peak %.2f GF/s)\n",
              peak_gflops);
  std::printf("generate n=%zu: system_entry %.2f ns/entry, system_row %.2f "
              "ns/entry, %s\n\n",
              gen.n, gen.entry_ns, gen.row_ns,
              gen.exact ? "bit-identical" : "DIFFERENT");

  const linalg::KernelConfig& cfg = linalg::active_kernel_config();
  for (const auto& [key, value] :
       {std::pair{"mc", cfg.mc}, std::pair{"kc", cfg.kc},
        std::pair{"nc", cfg.nc}, std::pair{"mr", cfg.mr},
        std::pair{"nr", cfg.nr}, std::pair{"trsm_block", cfg.trsm_block}}) {
    h.record(std::string("kernel_config.") + key,
             static_cast<double>(value), "elements", bench::Clock::kNone);
  }
  const auto record_row = [&h](const std::string& prefix, double naive,
                               double blocked, double diff) {
    h.record(prefix + ".gflops_naive", naive, "GFLOP/s",
             bench::Clock::kHost);
    h.record(prefix + ".gflops_blocked", blocked, "GFLOP/s",
             bench::Clock::kHost);
    h.record(prefix + ".speedup", naive > 0.0 ? blocked / naive : 0.0,
             "ratio", bench::Clock::kHost);
    h.record(prefix + ".max_abs_diff", diff, "abs", bench::Clock::kNone);
  };
  for (const GemmResult& r : gemm) {
    record_row("gemm." + r.shape + "." + std::to_string(r.m) + "." +
                   r.precision,
               r.gflops_naive, r.gflops_blocked, r.max_abs_diff);
  }
  for (const TrsmResult& r : trsm) {
    record_row("trsm.square." + std::to_string(r.n) + "." + r.precision,
               r.gflops_naive, r.gflops_blocked, r.max_abs_diff);
  }
  h.record("fma_peak_gflops", peak_gflops, "GFLOP/s", bench::Clock::kHost);
  h.record("ime_update.gflops_sweep", ime.gflops_sweep, "GFLOP/s",
           bench::Clock::kHost);
  h.record("ime_update.gflops_chain", ime.gflops_chain, "GFLOP/s",
           bench::Clock::kHost);
  h.record("ime_update.sweep_peak_frac", ime.gflops_sweep / peak_gflops,
           "ratio", bench::Clock::kHost);
  h.record("ime_update.chain_peak_frac", ime.gflops_chain / peak_gflops,
           "ratio", bench::Clock::kHost);
  h.record("ime_update.speedup", ime.gflops_chain / ime.gflops_sweep,
           "ratio", bench::Clock::kHost);
  h.record("ime_update.max_abs_diff", ime.max_abs_diff, "abs",
           bench::Clock::kNone);
  h.record("generate.system_entry_ns_per_entry", gen.entry_ns, "ns",
           bench::Clock::kHost);
  h.record("generate.system_row_ns_per_entry", gen.row_ns, "ns",
           bench::Clock::kHost);

  h.gate("naive-blocked-agree", numerics_ok,
         "naive vs blocked max|diff| must stay within the per-shape "
         "budget");
  h.gate("ime-update-exact", ime.exact,
         "the deferred IMe update must equal the per-level sweep bit for "
         "bit");
  h.gate("generate-exact", gen.exact,
         "system_row must equal system_entry bit for bit");
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "blocked dgemm %.3f GF/s vs naive %.3f GF/s at %zu^3",
                largest_square->gflops_blocked, largest_square->gflops_naive,
                largest_square->m);
  h.gate("blocked>=naive",
         largest_square->gflops_blocked >= largest_square->gflops_naive,
         detail);
  const int status = h.finish();
  // A divergence is a bug, not a slow kernel: it fails with or without
  // --check.
  if (!numerics_ok) {
    std::fprintf(stderr, "FAIL: naive/blocked results diverged\n");
    return 1;
  }
  if (!ime.exact) {
    std::fprintf(stderr,
                 "FAIL: deferred IMe update differs from the per-level "
                 "sweep\n");
    return 1;
  }
  if (!gen.exact) {
    std::fprintf(stderr, "FAIL: system_row differs from system_entry\n");
    return 1;
  }
  return status;
}
