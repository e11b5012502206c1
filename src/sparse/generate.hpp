// Deterministic sparse test-system generation — the CSR analogue of
// linalg/generate.hpp. Every entry is a pure function of (seed, n, i, j),
// so each rank of the distributed CG solver materializes exactly its row
// block of the same global matrix without any communication, and the
// replay tier can reproduce the pattern's nnz analytically.
//
// All five families are symmetric positive definite by construction: the
// off-diagonal pattern is symmetric (stencil geometry, or a hash of the
// unordered index pair) and the diagonal is the row's absolute
// off-diagonal sum plus one, which makes the matrix strictly diagonally
// dominant with a uniform margin of 1 — CG converges on every family, and
// the Gershgorin eigenvalue bounds behind the perfsim iteration model are
// row-independent (docs/sparse.md).
//
// The random family's *pattern* is seed-independent (presence is hashed
// from (n, i, j) only; the seed drives the values). That keeps nnz a pure
// function of (kind, n), which is what lets the analytic replay price the
// exact executed traffic without generating on a seed it does not have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "sparse/csr.hpp"

namespace plin::sparse {

/// The campaign's `matrix` axis: which sparsity family the CG jobs solve.
enum class SparseKind {
  kStencil5,   // 2D 5-point Laplacian stencil on a ceil(sqrt(n))^2 grid
  kStencil9,   // 2D 9-point (Moore neighborhood) stencil
  kStencil27,  // 3D 27-point stencil on a ceil(cbrt(n))^3 grid
  kBanded,     // symmetric band, half-width 8, hashed values in [-1, 1]
  kRandom,     // symmetric windowed random pattern, half-width 32, ~1/4 fill
  kBlockDiag,  // dense 64x64 diagonal blocks, hashed values in [-1, 1]
};

/// Manifest/CLI tokens ("stencil5" | "stencil9" | "stencil27" | "banded" |
/// "random" | "blockdiag").
const char* kind_token(SparseKind kind);
SparseKind parse_kind_token(const std::string& token);

/// Half-widths of the two hashed families (exposed for the halo model).
inline constexpr std::size_t kBandedHalfWidth = 8;
inline constexpr std::size_t kRandomHalfWidth = 32;

/// Block edge of the block-diagonal family. Rows couple only inside their
/// 64-aligned block, so any row-block distribution whose chunk is a
/// multiple of 64 has an *empty halo* — the zero-message CG fast path —
/// and every row carries ~64 entries, wide enough to feed the 8-lane SIMD
/// SpMV kernel full blocks (docs/sparse.md).
inline constexpr std::size_t kDiagBlock = 64;

/// Rows per block of the streamed consumers below (generated_residual,
/// pattern_nnz): their memory is bounded by one block, not by n.
inline constexpr std::size_t kStreamBlockRows = 4096;

/// Rows [row_lo, row_hi) of the global n x n system, with global column
/// indices and a local row_ptr starting at 0 — what each CG rank builds
/// for its block. Rows come out sorted and duplicate-free (ascending by
/// construction, docs/sparse.md). Throws InvalidArgument when n exceeds
/// the 32-bit column index range.
CsrMatrix generate_rows(SparseKind kind, std::uint64_t seed, std::size_t n,
                        std::size_t row_lo, std::size_t row_hi);

/// The full system (numeric-tier scale only).
CsrMatrix generate_matrix(SparseKind kind, std::uint64_t seed, std::size_t n);

/// scaled_residual(generate_matrix(kind, seed, n), x, b), bit for bit,
/// without materializing the matrix: rows stream through generate_rows and
/// spmv in blocks of kStreamBlockRows. Throws InvalidArgument when n
/// exceeds the 32-bit column index range.
double generated_residual(SparseKind kind, std::uint64_t seed, std::size_t n,
                          std::span<const double> x,
                          std::span<const double> b);

/// Exact nnz of the n x n pattern — a pure function of (kind, n) (the
/// random family's pattern is seed-independent by design). O(n) count in
/// blocks of kStreamBlockRows rows; shared by the executing solver's
/// reports and the analytic replay's traffic pricing.
std::size_t pattern_nnz(SparseKind kind, std::size_t n);

/// Largest column distance |i - j| any entry of the pattern can span —
/// the ghost-region half-width the halo-exchange cost model uses.
std::size_t pattern_reach(SparseKind kind, std::size_t n);

/// Representative absolute off-diagonal row sum of the family (the S in
/// the Gershgorin estimate: eigenvalues lie near [1, 2S + 1] because the
/// diagonal is S_row + 1; exact for the stencils, the expected sum for the
/// hashed families). Drives the perfsim iteration-count model.
double pattern_offdiag_sum(SparseKind kind);

}  // namespace plin::sparse
