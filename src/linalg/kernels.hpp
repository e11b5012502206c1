// BLAS-lite kernels on row-major views — exactly what the two solvers need:
// level-1 helpers, rank-1 update, triangular solves and GEMM.
//
// Two code paths back the level-2/3 kernels:
//   * a cache-blocked engine (default): GEMM packs MC x KC panels of A and
//     KC x NC panels of B into contiguous buffers and runs an unrolled
//     MR x NR register-tiled micro-kernel; the triangular solves invert
//     small diagonal blocks and push the bulk through GEMM; dger tiles its
//     columns. Block sizes come from KernelConfig (kernel_config.hpp).
//   * the naive reference kernels (`*_naive`): the test oracles and the
//     perf harness baseline, and the target the dispatchers pick for
//     problems too small to amortize packing.
//
// Each kernel documents its flop count; the distributed solvers charge
// those counts to xmpi's virtual clock via Comm::compute. Charged flops are
// a property of the documented formulas, NOT of the host path executed, so
// simulated durations/energy/traffic do not depend on which kernel ran.
//
// IEEE semantics: no kernel short-circuits on zero operands, so NaN and Inf
// propagate exactly as the arithmetic dictates (0 * Inf = NaN is produced,
// never skipped). The only BLAS-style quick returns are on the *scalars*:
// alpha == 0 means A/B are not referenced and beta == 0 overwrites C even
// if it held NaNs — both documented BLAS behavior.
//
// Scalar templating: every kernel is a template over the scalar type,
// explicitly instantiated for float and double in kernels.cpp (docs/
// kernels.md). The historical d* names below are thin double wrappers so
// existing call sites (and their bit-exact fp64 results) are untouched;
// fp32 callers use the generic names with an explicit type, e.g.
// `gemm<float>(...)`. The fp32 engine gets twice the SIMD lanes per
// register and prefers the NR-doubled variant of the configured register
// tile — the 2x-lane speedup bench_kernels tracks.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/kernel_config.hpp"
#include "linalg/matrix.hpp"

namespace plin::linalg {

// ---- scalar-templated engine -----------------------------------------------
// Declarations only; definitions live in kernels.cpp with explicit
// instantiations for float and double. Contracts (flop counts, IEEE
// semantics, NaN pivoting) are identical to the double wrappers below.

template <typename T>
void axpy(T alpha, std::span<const T> x, std::span<T> y);

template <typename T>
void scal(T alpha, std::span<T> x);

template <typename T>
T dot(std::span<const T> x, std::span<const T> y);

template <typename T>
std::size_t iamax(std::span<const T> x);

template <typename T>
void swap_rows(std::span<T> x, std::span<T> y);

template <typename T>
void ger(T alpha, std::span<const T> x, std::span<const T> y, BasicView<T> a);

template <typename T>
void ger_naive(T alpha, std::span<const T> x, std::span<const T> y,
               BasicView<T> a);

template <typename T>
void gemm(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
          BasicView<T> c);

template <typename T>
void gemm_naive(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
                BasicView<T> c);

template <typename T>
void gemm_blocked(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
                  BasicView<T> c);

template <typename T>
void trsm_lower_unit(BasicView<const T> l, BasicView<T> b);

template <typename T>
void trsm_lower_unit_naive(BasicView<const T> l, BasicView<T> b);

template <typename T>
void trsm_lower_unit_blocked(BasicView<const T> l, BasicView<T> b);

template <typename T>
void trsm_upper(BasicView<const T> u, BasicView<T> b);

template <typename T>
void trsm_upper_naive(BasicView<const T> u, BasicView<T> b);

template <typename T>
void trsm_upper_blocked(BasicView<const T> u, BasicView<T> b);

template <typename T>
void laswp(BasicView<T> a, std::span<const std::size_t> pivots);

template <typename T>
T matrix_inf_norm_of(BasicView<const T> a);

template <typename T>
T vector_inf_norm_of(std::span<const T> x);

// ---- historical double-precision API ---------------------------------------

/// y += alpha * x.
void daxpy(double alpha, std::span<const double> x, std::span<double> y);

/// Deferred axpy chain: for each i in [begin, end), applies
/// y[i] += alphas[p] * xs[p][i] for p = 0, 1, ... in order. Every element
/// gets the same multiply-adds in the same order as alphas.size()
/// successive daxpy calls over [begin, end), so the result is bit-identical
/// to them; y is streamed once instead of once per call. Each xs[p] must be
/// readable over [begin, end) and must not overlap y.
/// Flops: 2 * alphas.size() * (end - begin).
void daxpy_chain(std::span<const double> alphas,
                 std::span<const double* const> xs, std::span<double> y,
                 std::size_t begin, std::size_t end);

/// x *= alpha.
void dscal(double alpha, std::span<double> x);

/// Dot product x . y (sizes must match).
/// Flops: 2 * x.size().
double ddot(std::span<const double> x, std::span<const double> y);

/// Index of the element with the largest absolute value (first on ties);
/// n must be > 0.
///
/// NaN contract (the pivoting contract the blocked panel factorization
/// relies on): NaN entries are never selected — comparisons against NaN are
/// false, so a NaN can neither become nor displace the running maximum. If
/// every entry is NaN the index of the first element (0) is returned.
std::size_t idamax(std::span<const double> x);

/// Swap two equal-length vectors element-wise.
void dswap(std::span<double> x, std::span<double> y);

/// A += alpha * x * y^T  (rank-1 update; A is rows(x) x cols(y)).
/// Column-tiled so the active y chunk stays cache-resident.
/// Flops: 2 * x.size() * y.size().
void dger(double alpha, std::span<const double> x, std::span<const double> y,
          MatrixView a);

/// C = alpha * A * B + beta * C.
/// Dispatches to the packed blocked engine, or to the naive kernel when the
/// product is too small to amortize packing.
/// Flops: 2 * M * N * K (+ M*N for the beta scaling).
void dgemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
           MatrixView c);

/// Solve L * X = B in place (B := L^{-1} B) where L is unit lower
/// triangular. Blocked: diagonal blocks are inverted and both the inverse
/// application and the trailing updates run through dgemm.
/// Flops: rows(B)^2 * cols(B).
void dtrsm_lower_unit(ConstMatrixView l, MatrixView b);

/// Solve U * X = B in place (B := U^{-1} B) where U is upper triangular
/// with general diagonal. Blocked like dtrsm_lower_unit.
/// Flops: rows(B)^2 * cols(B) + rows*cols divisions.
void dtrsm_upper(ConstMatrixView u, MatrixView b);

// ---- forced-path entry points ----------------------------------------------
// The naive references are the original triple-loop kernels (kept honest:
// no zero-skip branches). The *_blocked entry points always run the engine
// regardless of the size heuristics — the tests and the perf harness
// compare the two directly.

void dgemm_naive(double alpha, ConstMatrixView a, ConstMatrixView b,
                 double beta, MatrixView c);
void dgemm_blocked(double alpha, ConstMatrixView a, ConstMatrixView b,
                   double beta, MatrixView c);
void dtrsm_lower_unit_naive(ConstMatrixView l, MatrixView b);
void dtrsm_lower_unit_blocked(ConstMatrixView l, MatrixView b);
void dtrsm_upper_naive(ConstMatrixView u, MatrixView b);
void dtrsm_upper_blocked(ConstMatrixView u, MatrixView b);
void dger_naive(double alpha, std::span<const double> x,
                std::span<const double> y, MatrixView a);

/// Apply row interchanges: for i in [0, pivots.size()), swap rows i and
/// pivots[i] of A (LAPACK dlaswp with forward order, 0-based pivots).
void dlaswp(MatrixView a, std::span<const std::size_t> pivots);

/// Infinity norm of a matrix (max absolute row sum).
double matrix_inf_norm(ConstMatrixView a);

/// Infinity norm of a vector.
double vector_inf_norm(std::span<const double> x);

/// Componentwise residual ||A*x - b||_inf. Each row's product is rounded
/// term by term and summed in index order, without fused multiply-adds, so
/// its bits are the same in every build (src/linalg/residual.cpp).
double residual_inf_norm(ConstMatrixView a, std::span<const double> x,
                         std::span<const double> b);

/// Scaled residual ||Ax-b||_inf / (||A||_inf * ||x||_inf * n) — the LAPACK
/// acceptance metric; values of O(machine epsilon) indicate a correct solve.
double scaled_residual(ConstMatrixView a, std::span<const double> x,
                       std::span<const double> b);

}  // namespace plin::linalg
