#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "support/error.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define PLIN_RESTRICT __restrict__
#else
#define PLIN_RESTRICT
#endif

namespace plin::linalg {

// ---- level 1 ---------------------------------------------------------------

template <typename T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) {
  PLIN_CHECK_MSG(x.size() == y.size(), "daxpy size mismatch");
  const T* PLIN_RESTRICT xp = x.data();
  T* PLIN_RESTRICT yp = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) yp[i] += alpha * xp[i];
}

template <typename T>
void scal(T alpha, std::span<T> x) {
  for (T& v : x) v *= alpha;
}

template <typename T>
T dot(std::span<const T> x, std::span<const T> y) {
  PLIN_CHECK_MSG(x.size() == y.size(), "ddot size mismatch");
  const T* PLIN_RESTRICT xp = x.data();
  const T* PLIN_RESTRICT yp = y.data();
  T sum = T(0);
  for (std::size_t i = 0; i < x.size(); ++i) sum += xp[i] * yp[i];
  return sum;
}

template <typename T>
std::size_t iamax(std::span<const T> x) {
  PLIN_CHECK_MSG(!x.empty(), "idamax on empty vector");
  // Start below any representable |x_i| so the first non-NaN wins; a NaN
  // never satisfies `a > best_abs`, so NaNs can neither become nor displace
  // the running maximum (see the header contract).
  std::size_t best = 0;
  T best_abs = T(-1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const T a = std::fabs(x[i]);
    if (a > best_abs) {
      best = i;
      best_abs = a;
    }
  }
  return best;
}

template <typename T>
void swap_rows(std::span<T> x, std::span<T> y) {
  PLIN_CHECK_MSG(x.size() == y.size(), "dswap size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) std::swap(x[i], y[i]);
}

void daxpy(double alpha, std::span<const double> x, std::span<double> y) {
  axpy<double>(alpha, x, y);
}

void dscal(double alpha, std::span<double> x) { scal<double>(alpha, x); }

double ddot(std::span<const double> x, std::span<const double> y) {
  return dot<double>(x, y);
}

std::size_t idamax(std::span<const double> x) { return iamax<double>(x); }

void dswap(std::span<double> x, std::span<double> y) {
  swap_rows<double>(x, y);
}

// ---- rank-1 update ---------------------------------------------------------

template <typename T>
void ger_naive(T alpha, std::span<const T> x, std::span<const T> y,
               BasicView<T> a) {
  PLIN_CHECK_MSG(a.rows() == x.size() && a.cols() == y.size(),
                 "dger shape mismatch");
  const T* PLIN_RESTRICT yp = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const T ax = alpha * x[i];
    T* PLIN_RESTRICT row = a.row(i).data();
    for (std::size_t j = 0; j < y.size(); ++j) row[j] += ax * yp[j];
  }
}

template <typename T>
void ger(T alpha, std::span<const T> x, std::span<const T> y, BasicView<T> a) {
  PLIN_CHECK_MSG(a.rows() == x.size() && a.cols() == y.size(),
                 "dger shape mismatch");
  const KernelConfig& cfg = active_kernel_config();
  const std::size_t n = y.size();
  const std::size_t jb = cfg.ger_block;
  const std::size_t stride = a.stride();
  T* const base = a.data();
  // Column tiles: the y chunk (and the C tile's cache lines) stay resident
  // while every row is visited. Per-element arithmetic is identical to the
  // naive single sweep, so results are bit-for-bit the same.
  for (std::size_t j0 = 0; j0 < n; j0 += jb) {
    const std::size_t cols = std::min(jb, n - j0);
    const T* PLIN_RESTRICT yc = y.data() + j0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const T ax = alpha * x[i];
      T* PLIN_RESTRICT row = base + i * stride + j0;
      for (std::size_t j = 0; j < cols; ++j) row[j] += ax * yc[j];
    }
  }
}

void dger_naive(double alpha, std::span<const double> x,
                std::span<const double> y, MatrixView a) {
  ger_naive<double>(alpha, x, y, a);
}

void dger(double alpha, std::span<const double> x, std::span<const double> y,
          MatrixView a) {
  ger<double>(alpha, x, y, a);
}

// ---- GEMM ------------------------------------------------------------------

namespace {

template <typename T>
void check_gemm_shapes(BasicView<const T> a, BasicView<const T> b,
                       BasicView<T> c) {
  PLIN_CHECK_MSG(a.cols() == b.rows(), "dgemm inner dimension mismatch");
  PLIN_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                 "dgemm output shape mismatch");
}

/// C *= beta (beta == 0 overwrites, clearing NaNs — BLAS semantics).
template <typename T>
void scale_c(T beta, BasicView<T> c) {
  if (beta == T(1)) return;
  for (std::size_t i = 0; i < c.rows(); ++i) {
    T* row = c.row(i).data();
    if (beta == T(0)) {
      std::fill(row, row + c.cols(), T(0));
    } else {
      for (std::size_t j = 0; j < c.cols(); ++j) row[j] *= beta;
    }
  }
}

/// Packs A[ic:ic+mc_eff, pc:pc+kc_eff] scaled by alpha into micro-panels of
/// `mr` rows: panel-major, then depth-major, then row-minor, zero-padded to
/// a full mr so the micro-kernel never branches on the row edge.
template <typename T>
void pack_a(BasicView<const T> a, std::size_t ic, std::size_t pc,
            std::size_t mc_eff, std::size_t kc_eff, std::size_t mr, T alpha,
            std::vector<T>& buf) {
  buf.resize(((mc_eff + mr - 1) / mr) * mr * kc_eff);
  T* PLIN_RESTRICT dst = buf.data();
  const std::size_t stride = a.stride();
  for (std::size_t ir = 0; ir < mc_eff; ir += mr) {
    const std::size_t rows = std::min(mr, mc_eff - ir);
    for (std::size_t i = 0; i < rows; ++i) {
      const T* PLIN_RESTRICT src = a.data() + (ic + ir + i) * stride + pc;
      for (std::size_t p = 0; p < kc_eff; ++p) dst[p * mr + i] = alpha * src[p];
    }
    for (std::size_t i = rows; i < mr; ++i) {
      for (std::size_t p = 0; p < kc_eff; ++p) dst[p * mr + i] = T(0);
    }
    dst += mr * kc_eff;
  }
}

/// Packs B[pc:pc+kc_eff, jc:jc+nc_eff] into micro-panels of `nr` columns:
/// panel-major, depth-major, column-minor, zero-padded to a full nr.
template <typename T>
void pack_b(BasicView<const T> b, std::size_t pc, std::size_t jc,
            std::size_t kc_eff, std::size_t nc_eff, std::size_t nr,
            std::vector<T>& buf) {
  buf.resize(((nc_eff + nr - 1) / nr) * nr * kc_eff);
  T* PLIN_RESTRICT dst = buf.data();
  const std::size_t stride = b.stride();
  for (std::size_t jr = 0; jr < nc_eff; jr += nr) {
    const std::size_t cols = std::min(nr, nc_eff - jr);
    for (std::size_t p = 0; p < kc_eff; ++p) {
      const T* PLIN_RESTRICT src = b.data() + (pc + p) * stride + jc + jr;
      for (std::size_t j = 0; j < cols; ++j) dst[p * nr + j] = src[j];
      for (std::size_t j = cols; j < nr; ++j) dst[p * nr + j] = T(0);
    }
    dst += nr * kc_eff;
  }
}

// Native SIMD lane type for the micro-kernel accumulators. The scalar form
// of the tile update needs MR*NR independent accumulators, which the
// auto-vectorizer spills to the stack (a load/add/store chain per element,
// latency-bound). Spelling the lanes out as vector-extension values keeps
// the whole accumulator tile in SIMD registers. The reduced alignment
// downgrades loads/stores to unaligned forms (C rows have arbitrary
// alignment); `may_alias` lets us view packed scalar buffers as lanes.
// GCC rejects vector_size on dependent types, so the per-scalar vector
// typedefs are concrete and selected through SimdTraits<T>; a float lane
// holds twice as many elements as a double lane at every ISA level.
#if defined(__AVX512F__)
typedef double vd __attribute__((vector_size(64), aligned(8), __may_alias__));
typedef float vf __attribute__((vector_size(64), aligned(4), __may_alias__));
#elif defined(__AVX__)
typedef double vd __attribute__((vector_size(32), aligned(8), __may_alias__));
typedef float vf __attribute__((vector_size(32), aligned(4), __may_alias__));
#else
typedef double vd __attribute__((vector_size(16), aligned(8), __may_alias__));
typedef float vf __attribute__((vector_size(16), aligned(4), __may_alias__));
#endif

template <typename T>
struct SimdTraits;
template <>
struct SimdTraits<double> {
  using vec = vd;
};
template <>
struct SimdTraits<float> {
  using vec = vf;
};

template <typename T>
constexpr std::size_t kVecLanes =
    sizeof(typename SimdTraits<T>::vec) / sizeof(T);

/// SIMD register tile for NR a multiple of the vector width: per depth step,
/// load NR/kVecLanes lanes of the packed B row, broadcast each packed A
/// element, and FMA into the resident accumulator lanes.
template <typename T, std::size_t MR, std::size_t NR>
void micro_tile_simd(std::size_t kc, const T* PLIN_RESTRICT ap,
                     const T* PLIN_RESTRICT bp, T* PLIN_RESTRICT c,
                     std::size_t ldc, T beta, std::size_t mr_eff,
                     std::size_t nr_eff) {
  using vt = typename SimdTraits<T>::vec;
  static_assert(NR % kVecLanes<T> == 0);
  constexpr std::size_t NV = NR / kVecLanes<T>;
  vt acc[MR][NV] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const T* PLIN_RESTRICT a = ap + p * MR;
    const vt* PLIN_RESTRICT b = reinterpret_cast<const vt*>(bp + p * NR);
    vt bv[NV];
    for (std::size_t v = 0; v < NV; ++v) bv[v] = b[v];
    for (std::size_t i = 0; i < MR; ++i) {
      const T ai = a[i];
      for (std::size_t v = 0; v < NV; ++v) acc[i][v] += ai * bv[v];
    }
  }
  if (mr_eff == MR && nr_eff == NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      vt* PLIN_RESTRICT crow = reinterpret_cast<vt*>(c + i * ldc);
      if (beta == T(0)) {
        for (std::size_t v = 0; v < NV; ++v) crow[v] = acc[i][v];
      } else if (beta == T(1)) {
        for (std::size_t v = 0; v < NV; ++v) crow[v] += acc[i][v];
      } else {
        for (std::size_t v = 0; v < NV; ++v) {
          crow[v] = beta * crow[v] + acc[i][v];
        }
      }
    }
    return;
  }
  // Edge tile: the padded lanes were computed against zeros; spill the
  // accumulators and store only the live mr_eff x nr_eff corner.
  T spill[MR * NR];
  for (std::size_t i = 0; i < MR; ++i) {
    vt* PLIN_RESTRICT srow = reinterpret_cast<vt*>(spill + i * NR);
    for (std::size_t v = 0; v < NV; ++v) srow[v] = acc[i][v];
  }
  for (std::size_t i = 0; i < mr_eff; ++i) {
    for (std::size_t j = 0; j < nr_eff; ++j) {
      const T prior = beta == T(0) ? T(0) : beta * c[i * ldc + j];
      c[i * ldc + j] = prior + spill[i * NR + j];
    }
  }
}

/// Scalar fallback for register tiles whose NR is narrower than the native
/// vector width (reachable via an explicit KernelConfig mr/nr, and for
/// narrow fp32 tiles whose NR is below the doubled lane count).
template <typename T, std::size_t MR, std::size_t NR>
void micro_tile_scalar(std::size_t kc, const T* PLIN_RESTRICT ap,
                       const T* PLIN_RESTRICT bp, T* PLIN_RESTRICT c,
                       std::size_t ldc, T beta, std::size_t mr_eff,
                       std::size_t nr_eff) {
  T acc[MR * NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const T* PLIN_RESTRICT a = ap + p * MR;
    const T* PLIN_RESTRICT b = bp + p * NR;
    for (std::size_t i = 0; i < MR; ++i) {
      const T ai = a[i];
      for (std::size_t j = 0; j < NR; ++j) acc[i * NR + j] += ai * b[j];
    }
  }
  for (std::size_t i = 0; i < mr_eff; ++i) {
    for (std::size_t j = 0; j < nr_eff; ++j) {
      const T prior = beta == T(0) ? T(0) : beta * c[i * ldc + j];
      c[i * ldc + j] = prior + acc[i * NR + j];
    }
  }
}

/// One MR x NR register tile: accumulate alpha*A*B over the packed depth in
/// resident accumulators, then fold into C with beta (beta applies only on
/// the first KC block of a C tile; later blocks arrive with beta == 1).
template <typename T, std::size_t MR, std::size_t NR>
void micro_tile(std::size_t kc, const T* PLIN_RESTRICT ap,
                const T* PLIN_RESTRICT bp, T* PLIN_RESTRICT c,
                std::size_t ldc, T beta, std::size_t mr_eff,
                std::size_t nr_eff) {
  if constexpr (NR % kVecLanes<T> == 0) {
    micro_tile_simd<T, MR, NR>(kc, ap, bp, c, ldc, beta, mr_eff, nr_eff);
  } else {
    micro_tile_scalar<T, MR, NR>(kc, ap, bp, c, ldc, beta, mr_eff, nr_eff);
  }
}

template <typename T>
using MicroFn = void (*)(std::size_t, const T*, const T*, T*, std::size_t, T,
                         std::size_t, std::size_t);

template <typename T>
struct MicroVariant {
  std::size_t mr;
  std::size_t nr;
  MicroFn<T> fn;
};

// Keep in sync with kSupportedTiles in kernel_config.cpp.
constexpr MicroVariant<double> kMicroVariantsF64[] = {
    {4, 4, micro_tile<double, 4, 4>},   {4, 8, micro_tile<double, 4, 8>},
    {8, 4, micro_tile<double, 8, 4>},   {6, 8, micro_tile<double, 6, 8>},
    {8, 8, micro_tile<double, 8, 8>},   {8, 16, micro_tile<double, 8, 16>},
};

// The fp32 set is the fp64 set with NR doubled (one float lane holds twice
// the elements, so the same register budget covers twice the tile width),
// plus the shared shapes so an explicit KernelConfig mr/nr still
// resolves. Keep in sync with the fp32 snapping note in kernel_config.cpp.
constexpr MicroVariant<float> kMicroVariantsF32[] = {
    {4, 8, micro_tile<float, 4, 8>},    {4, 16, micro_tile<float, 4, 16>},
    {8, 8, micro_tile<float, 8, 8>},    {6, 16, micro_tile<float, 6, 16>},
    {8, 16, micro_tile<float, 8, 16>},  {8, 32, micro_tile<float, 8, 32>},
};

template <typename T>
MicroFn<T> find_micro(std::size_t mr, std::size_t nr) {
  auto lookup = [&](const auto& table) -> MicroFn<T> {
    for (const MicroVariant<T>& v : table) {
      if (v.mr == mr && v.nr == nr) return v.fn;
    }
    return nullptr;
  };
  if constexpr (std::is_same_v<T, double>) {
    return lookup(kMicroVariantsF64);
  } else {
    return lookup(kMicroVariantsF32);
  }
}

}  // namespace

template <typename T>
void gemm_naive(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
                BasicView<T> c) {
  check_gemm_shapes<T>(a, b, c);
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = a.cols();
  if (alpha == T(0) || k == 0) {
    scale_c<T>(beta, c);
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    T* PLIN_RESTRICT crow = c.row(i).data();
    if (beta == T(0)) {
      std::fill(crow, crow + n, T(0));
    } else if (beta != T(1)) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    // ikj order: stream rows of B, accumulate into the C row. No zero-skip:
    // 0 * Inf must produce NaN, and the branch would stall the pipeline.
    const T* arow = a.row(i).data();
    for (std::size_t p = 0; p < k; ++p) {
      const T aip = alpha * arow[p];
      const T* PLIN_RESTRICT brow = b.row(p).data();
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

template <typename T>
void gemm_blocked(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
                  BasicView<T> c) {
  check_gemm_shapes<T>(a, b, c);
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = a.cols();
  if (m == 0 || n == 0) return;
  if (alpha == T(0) || k == 0) {
    scale_c<T>(beta, c);
    return;
  }

  const KernelConfig& cfg = active_kernel_config();
  const std::size_t mr = cfg.mr;
  std::size_t nr = cfg.nr;
  if constexpr (!std::is_same_v<T, double>) {
    // fp32: the same register budget holds twice the lanes, so prefer the
    // NR-doubled variant of the configured tile when it is compiled.
    if (find_micro<T>(mr, nr * 2) != nullptr) nr *= 2;
  }
  const MicroFn<T> micro = find_micro<T>(mr, nr);
  PLIN_CHECK_MSG(micro != nullptr, "dgemm: unsupported register tile");

  // Packing workspaces persist across calls; the engine is single-threaded
  // (like the whole simulator) and gemm never re-enters itself.
  static thread_local std::vector<T> a_pack;
  static thread_local std::vector<T> b_pack;

  const std::size_t ldc = c.stride();
  T* const cbase = c.data();

  for (std::size_t jc = 0; jc < n; jc += cfg.nc) {
    const std::size_t nc_eff = std::min(cfg.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += cfg.kc) {
      const std::size_t kc_eff = std::min(cfg.kc, k - pc);
      // beta applies exactly once per C tile: on the first depth block.
      const T beta_eff = pc == 0 ? beta : T(1);
      pack_b<T>(b, pc, jc, kc_eff, nc_eff, nr, b_pack);
      for (std::size_t ic = 0; ic < m; ic += cfg.mc) {
        const std::size_t mc_eff = std::min(cfg.mc, m - ic);
        pack_a<T>(a, ic, pc, mc_eff, kc_eff, mr, alpha, a_pack);
        for (std::size_t jr = 0; jr < nc_eff; jr += nr) {
          const std::size_t nr_eff = std::min(nr, nc_eff - jr);
          const T* bp = b_pack.data() + (jr / nr) * nr * kc_eff;
          for (std::size_t ir = 0; ir < mc_eff; ir += mr) {
            const std::size_t mr_eff = std::min(mr, mc_eff - ir);
            const T* ap = a_pack.data() + (ir / mr) * mr * kc_eff;
            micro(kc_eff, ap, bp, cbase + (ic + ir) * ldc + jc + jr, ldc,
                  beta_eff, mr_eff, nr_eff);
          }
        }
      }
    }
  }
}

template <typename T>
void gemm(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
          BasicView<T> c) {
  check_gemm_shapes<T>(a, b, c);
  // Tiny products do not amortize the packing passes; route them to the
  // naive path (identical contract, only rounding of partial sums differs).
  const double work = 2.0 * static_cast<double>(c.rows()) *
                      static_cast<double>(c.cols()) *
                      static_cast<double>(a.cols());
  if (work < 16384.0) {
    gemm_naive<T>(alpha, a, b, beta, c);
  } else {
    gemm_blocked<T>(alpha, a, b, beta, c);
  }
}

void dgemm_naive(double alpha, ConstMatrixView a, ConstMatrixView b,
                 double beta, MatrixView c) {
  gemm_naive<double>(alpha, a, b, beta, c);
}

void dgemm_blocked(double alpha, ConstMatrixView a, ConstMatrixView b,
                   double beta, MatrixView c) {
  gemm_blocked<double>(alpha, a, b, beta, c);
}

void dgemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
           MatrixView c) {
  gemm<double>(alpha, a, b, beta, c);
}

// ---- deferred level updates ------------------------------------------------

// Bit-identical to successive daxpy calls only while every update keeps
// daxpy's `y += a * x` form in this translation unit: under the same
// contraction flags it is one fused multiply-add per element on FMA
// targets and a multiply then an add elsewhere. The scalar tail runs p
// outer, i inner, so the compiler cannot vectorize across p (a reduction
// that it would split into an unfused multiply and add).
void daxpy_chain(std::span<const double> alphas,
                 std::span<const double* const> xs, std::span<double> y,
                 std::size_t begin, std::size_t end) {
  PLIN_CHECK_MSG(alphas.size() == xs.size(), "daxpy_chain size mismatch");
  PLIN_CHECK_MSG(begin <= end && end <= y.size(), "daxpy_chain range");
  constexpr std::size_t W = kVecLanes<double>;
  const std::size_t m = alphas.size();
  const double* PLIN_RESTRICT a = alphas.data();
  double* PLIN_RESTRICT yp = y.data();
  std::size_t i = begin;
  // Two lanes of y stay in registers across the whole chain.
  for (; i + 2 * W <= end; i += 2 * W) {
    vd* PLIN_RESTRICT yv = reinterpret_cast<vd*>(yp + i);
    vd y0 = yv[0];
    vd y1 = yv[1];
    for (std::size_t p = 0; p < m; ++p) {
      const vd* PLIN_RESTRICT xv = reinterpret_cast<const vd*>(xs[p] + i);
      y0 += a[p] * xv[0];
      y1 += a[p] * xv[1];
    }
    yv[0] = y0;
    yv[1] = y1;
  }
  if (i + W <= end) {
    vd* PLIN_RESTRICT yv = reinterpret_cast<vd*>(yp + i);
    vd y0 = yv[0];
    for (std::size_t p = 0; p < m; ++p) {
      y0 += a[p] * *reinterpret_cast<const vd*>(xs[p] + i);
    }
    yv[0] = y0;
    i += W;
  }
  for (std::size_t p = 0; p < m; ++p) {
    const double* PLIN_RESTRICT x = xs[p];
    for (std::size_t k = i; k < end; ++k) yp[k] += a[p] * x[k];
  }
}

// ---- triangular solves -----------------------------------------------------

namespace {

template <typename T>
void check_trsm_shapes(BasicView<const T> t, BasicView<T> b, const char* who) {
  PLIN_CHECK_MSG(t.rows() == t.cols(), std::string(who) + ": must be square");
  PLIN_CHECK_MSG(t.rows() == b.rows(), "dtrsm shape mismatch");
}

/// inv := L^{-1} for a unit lower triangular L (forward substitution on I).
template <typename T>
void invert_unit_lower(BasicView<const T> l, BasicView<T> inv) {
  const std::size_t w = l.rows();
  for (std::size_t j = 0; j < w; ++j) {
    for (std::size_t i = 0; i < j; ++i) inv(i, j) = T(0);
    inv(j, j) = T(1);
    for (std::size_t i = j + 1; i < w; ++i) {
      T sum = T(0);
      for (std::size_t p = j; p < i; ++p) sum += l(i, p) * inv(p, j);
      inv(i, j) = -sum;
    }
  }
}

/// inv := U^{-1} for an upper triangular U with general (nonzero) diagonal.
template <typename T>
void invert_upper(BasicView<const T> u, BasicView<T> inv) {
  const std::size_t w = u.rows();
  for (std::size_t jj = w; jj-- > 0;) {
    for (std::size_t i = jj + 1; i < w; ++i) inv(i, jj) = T(0);
    for (std::size_t ii = jj + 1; ii-- > 0;) {
      const T diag = u(ii, ii);
      PLIN_CHECK_MSG(diag != T(0), "dtrsm: singular U");
      T sum = ii == jj ? T(1) : T(0);
      for (std::size_t p = ii + 1; p <= jj; ++p) sum -= u(ii, p) * inv(p, jj);
      inv(ii, jj) = sum / diag;
    }
  }
}

}  // namespace

template <typename T>
void trsm_lower_unit_naive(BasicView<const T> l, BasicView<T> b) {
  check_trsm_shapes<T>(l, b, "dtrsm: L");
  const std::size_t n = l.rows();
  const std::size_t m = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    T* PLIN_RESTRICT bi = b.row(i).data();
    for (std::size_t p = 0; p < i; ++p) {
      const T lip = l(i, p);
      const T* PLIN_RESTRICT bp = b.row(p).data();
      for (std::size_t j = 0; j < m; ++j) bi[j] -= lip * bp[j];
    }
  }
}

template <typename T>
void trsm_lower_unit_blocked(BasicView<const T> l, BasicView<T> b) {
  check_trsm_shapes<T>(l, b, "dtrsm: L");
  const std::size_t n = l.rows();
  const std::size_t m = b.cols();
  if (n == 0 || m == 0) return;
  const std::size_t nb = active_kernel_config().trsm_block;

  BasicMatrix<T> inv(std::min(nb, n), std::min(nb, n));
  BasicMatrix<T> tmp(std::min(nb, n), m);
  for (std::size_t k0 = 0; k0 < n; k0 += nb) {
    const std::size_t w = std::min(nb, n - k0);
    // B[k0:k0+w] -= L[k0:k0+w, 0:k0] * B[0:k0] — the bulk, through GEMM.
    if (k0 > 0) {
      gemm<T>(T(-1), l.sub(k0, 0, w, k0), b.sub(0, 0, k0, m), T(1),
              b.sub(k0, 0, w, m));
    }
    // Diagonal block: invert the small unit-lower block and apply the
    // inverse as a GEMM (out-of-place via tmp, GEMM operands cannot alias).
    BasicView<T> invw = inv.view().sub(0, 0, w, w);
    invert_unit_lower<T>(l.sub(k0, k0, w, w), invw);
    BasicView<T> tmpw = tmp.view().sub(0, 0, w, m);
    for (std::size_t r = 0; r < w; ++r) {
      const std::span<const T> src = b.sub(k0, 0, w, m).row(r);
      std::copy(src.begin(), src.end(), tmpw.row(r).begin());
    }
    gemm<T>(T(1), invw, tmpw, T(0), b.sub(k0, 0, w, m));
  }
}

template <typename T>
void trsm_lower_unit(BasicView<const T> l, BasicView<T> b) {
  const KernelConfig& cfg = active_kernel_config();
  if (l.rows() <= cfg.trsm_block) {
    trsm_lower_unit_naive<T>(l, b);
  } else {
    trsm_lower_unit_blocked<T>(l, b);
  }
}

template <typename T>
void trsm_upper_naive(BasicView<const T> u, BasicView<T> b) {
  check_trsm_shapes<T>(u, b, "dtrsm: U");
  const std::size_t n = u.rows();
  const std::size_t m = b.cols();
  for (std::size_t ii = n; ii-- > 0;) {
    T* PLIN_RESTRICT bi = b.row(ii).data();
    for (std::size_t p = ii + 1; p < n; ++p) {
      const T uip = u(ii, p);
      const T* PLIN_RESTRICT bp = b.row(p).data();
      for (std::size_t j = 0; j < m; ++j) bi[j] -= uip * bp[j];
    }
    const T diag = u(ii, ii);
    PLIN_CHECK_MSG(diag != T(0), "dtrsm: singular U");
    for (std::size_t j = 0; j < m; ++j) bi[j] /= diag;
  }
}

template <typename T>
void trsm_upper_blocked(BasicView<const T> u, BasicView<T> b) {
  check_trsm_shapes<T>(u, b, "dtrsm: U");
  const std::size_t n = u.rows();
  const std::size_t m = b.cols();
  if (n == 0 || m == 0) return;
  const std::size_t nb = active_kernel_config().trsm_block;

  BasicMatrix<T> inv(std::min(nb, n), std::min(nb, n));
  BasicMatrix<T> tmp(std::min(nb, n), m);
  const std::size_t nblocks = (n + nb - 1) / nb;
  for (std::size_t bk = nblocks; bk-- > 0;) {
    const std::size_t k0 = bk * nb;
    const std::size_t w = std::min(nb, n - k0);
    // B[k0:k0+w] -= U[k0:k0+w, k0+w:n] * B[k0+w:n] — the bulk, through GEMM.
    if (k0 + w < n) {
      gemm<T>(T(-1), u.sub(k0, k0 + w, w, n - k0 - w),
              b.sub(k0 + w, 0, n - k0 - w, m), T(1), b.sub(k0, 0, w, m));
    }
    BasicView<T> invw = inv.view().sub(0, 0, w, w);
    invert_upper<T>(u.sub(k0, k0, w, w), invw);
    BasicView<T> tmpw = tmp.view().sub(0, 0, w, m);
    for (std::size_t r = 0; r < w; ++r) {
      const std::span<const T> src = b.sub(k0, 0, w, m).row(r);
      std::copy(src.begin(), src.end(), tmpw.row(r).begin());
    }
    gemm<T>(T(1), invw, tmpw, T(0), b.sub(k0, 0, w, m));
  }
}

template <typename T>
void trsm_upper(BasicView<const T> u, BasicView<T> b) {
  const KernelConfig& cfg = active_kernel_config();
  if (u.rows() <= cfg.trsm_block) {
    trsm_upper_naive<T>(u, b);
  } else {
    trsm_upper_blocked<T>(u, b);
  }
}

void dtrsm_lower_unit_naive(ConstMatrixView l, MatrixView b) {
  trsm_lower_unit_naive<double>(l, b);
}

void dtrsm_lower_unit_blocked(ConstMatrixView l, MatrixView b) {
  trsm_lower_unit_blocked<double>(l, b);
}

void dtrsm_lower_unit(ConstMatrixView l, MatrixView b) {
  trsm_lower_unit<double>(l, b);
}

void dtrsm_upper_naive(ConstMatrixView u, MatrixView b) {
  trsm_upper_naive<double>(u, b);
}

void dtrsm_upper_blocked(ConstMatrixView u, MatrixView b) {
  trsm_upper_blocked<double>(u, b);
}

void dtrsm_upper(ConstMatrixView u, MatrixView b) {
  trsm_upper<double>(u, b);
}

// ---- permutations and norms ------------------------------------------------

template <typename T>
void laswp(BasicView<T> a, std::span<const std::size_t> pivots) {
  PLIN_CHECK_MSG(pivots.size() <= a.rows(), "dlaswp: too many pivots");
  for (std::size_t i = 0; i < pivots.size(); ++i) {
    const std::size_t p = pivots[i];
    PLIN_CHECK_MSG(p < a.rows(), "dlaswp: pivot out of range");
    if (p != i) swap_rows<T>(a.row(i), a.row(p));
  }
}

template <typename T>
T matrix_inf_norm_of(BasicView<const T> a) {
  T norm = T(0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    T sum = T(0);
    for (T v : a.row(i)) sum += std::fabs(v);
    norm = std::max(norm, sum);
  }
  return norm;
}

template <typename T>
T vector_inf_norm_of(std::span<const T> x) {
  T norm = T(0);
  for (T v : x) norm = std::max(norm, std::fabs(v));
  return norm;
}

void dlaswp(MatrixView a, std::span<const std::size_t> pivots) {
  laswp<double>(a, pivots);
}

double matrix_inf_norm(ConstMatrixView a) {
  return matrix_inf_norm_of<double>(a);
}

double vector_inf_norm(std::span<const double> x) {
  return vector_inf_norm_of<double>(x);
}

// ---- explicit instantiations -----------------------------------------------
// The engine compiles exactly twice: once per supported scalar. Callers use
// the generic names with an explicit type (`gemm<float>(...)`); the double
// wrappers above pin the historical fp64 entry points.

#define PLIN_INSTANTIATE_KERNELS(T)                                           \
  template void axpy<T>(T, std::span<const T>, std::span<T>);                 \
  template void scal<T>(T, std::span<T>);                                     \
  template T dot<T>(std::span<const T>, std::span<const T>);                  \
  template std::size_t iamax<T>(std::span<const T>);                          \
  template void swap_rows<T>(std::span<T>, std::span<T>);                     \
  template void ger<T>(T, std::span<const T>, std::span<const T>,             \
                       BasicView<T>);                                         \
  template void ger_naive<T>(T, std::span<const T>, std::span<const T>,       \
                             BasicView<T>);                                   \
  template void gemm<T>(T, BasicView<const T>, BasicView<const T>, T,         \
                        BasicView<T>);                                        \
  template void gemm_naive<T>(T, BasicView<const T>, BasicView<const T>, T,   \
                              BasicView<T>);                                  \
  template void gemm_blocked<T>(T, BasicView<const T>, BasicView<const T>, T, \
                                BasicView<T>);                                \
  template void trsm_lower_unit<T>(BasicView<const T>, BasicView<T>);         \
  template void trsm_lower_unit_naive<T>(BasicView<const T>, BasicView<T>);   \
  template void trsm_lower_unit_blocked<T>(BasicView<const T>, BasicView<T>); \
  template void trsm_upper<T>(BasicView<const T>, BasicView<T>);              \
  template void trsm_upper_naive<T>(BasicView<const T>, BasicView<T>);        \
  template void trsm_upper_blocked<T>(BasicView<const T>, BasicView<T>);      \
  template void laswp<T>(BasicView<T>, std::span<const std::size_t>);         \
  template T matrix_inf_norm_of<T>(BasicView<const T>);                       \
  template T vector_inf_norm_of<T>(std::span<const T>)

PLIN_INSTANTIATE_KERNELS(float);
PLIN_INSTANTIATE_KERNELS(double);

#undef PLIN_INSTANTIATE_KERNELS

}  // namespace plin::linalg
