// CSR (compressed sparse row) matrices — the storage format of the
// memory-bound workload family (docs/sparse.md).
//
// Layout: row_ptr[r] .. row_ptr[r+1] delimits row r's entries in the
// parallel col_idx / values arrays. Column indices are 32-bit by design:
// the 4-byte index stream next to the 8-byte value stream is exactly what
// makes CSR SpMV traffic-dominated, and the hwmodel prices those streams
// separately (hwmodel/sparse.hpp). Rows are kept sorted by column and
// duplicate-free (normalize() restores the invariant after unordered
// assembly, e.g. a Matrix Market import).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace plin::sparse {

struct CsrMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> row_ptr;   // rows + 1 offsets, row_ptr[0] == 0
  std::vector<std::uint32_t> col_idx; // nnz column indices
  std::vector<double> values;         // nnz values

  std::size_t nnz() const { return values.size(); }

  /// Heap footprint of the three streams (what generation memory_touches).
  double size_bytes() const {
    return 8.0 * static_cast<double>(row_ptr.size()) +
           4.0 * static_cast<double>(col_idx.size()) +
           8.0 * static_cast<double>(values.size());
  }

  /// Throws InvalidArgument unless the structure is well formed: offsets
  /// monotone and spanning both entry arrays, every column in range, and
  /// every row sorted by column with no duplicates.
  void validate() const;

  /// Sorts every row by column index and merges duplicate entries by
  /// adding their values — the repair step for unordered assembly.
  void normalize();
};

/// An empty (all-zero) rows x cols matrix.
CsrMatrix make_empty(std::size_t rows, std::size_t cols);

/// y = A * x. x must have a.cols elements, y a.rows; throws otherwise.
/// Sequential. Each row sums its entries in two independent accumulators
/// over even/odd entry pairs, added as acc0 + acc1 at the end — that
/// bracketing is the kernel's numeric contract (docs/sparse.md).
void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y);

/// y[r] = (A x)[r] for exactly the rows listed in `rows`; every other y
/// entry is left untouched. Per-row accumulation is identical to spmv, so
/// computing a row here or there yields the same bits — the property the
/// CG interior/boundary split relies on (docs/sparse.md).
void spmv_rows(const CsrMatrix& a, std::span<const double> x,
               std::span<double> y, std::span<const std::uint32_t> rows);

/// Infinity norm (max absolute row sum).
double inf_norm(const CsrMatrix& a);

/// Scaled residual ||Ax-b||_inf / (||A||_inf * ||x||_inf * n) — the same
/// LAPACK acceptance metric linalg::scaled_residual applies to the dense
/// solvers, evaluated without densifying A. Requires a square matrix.
double scaled_residual(const CsrMatrix& a, std::span<const double> x,
                       std::span<const double> b);

}  // namespace plin::sparse
