#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/error.hpp"

namespace plin::sparse {

void CsrMatrix::validate() const {
  PLIN_CHECK_MSG(row_ptr.size() == rows + 1,
                 "csr: row_ptr must hold rows + 1 offsets");
  PLIN_CHECK_MSG(row_ptr.front() == 0, "csr: row_ptr must start at 0");
  PLIN_CHECK_MSG(row_ptr.back() == values.size() &&
                     col_idx.size() == values.size(),
                 "csr: offsets do not span the entry arrays");
  for (std::size_t r = 0; r < rows; ++r) {
    PLIN_CHECK_MSG(row_ptr[r] <= row_ptr[r + 1],
                   "csr: row_ptr must be monotone");
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      PLIN_CHECK_MSG(col_idx[k] < cols, "csr: column index out of range");
      PLIN_CHECK_MSG(k == row_ptr[r] || col_idx[k - 1] < col_idx[k],
                     "csr: row not sorted / has duplicate columns "
                     "(call normalize())");
    }
  }
}

void CsrMatrix::normalize() {
  std::vector<std::pair<std::uint32_t, double>> row;
  std::vector<std::size_t> new_ptr(rows + 1, 0);
  std::vector<std::uint32_t> new_col;
  std::vector<double> new_val;
  new_col.reserve(col_idx.size());
  new_val.reserve(values.size());
  for (std::size_t r = 0; r < rows; ++r) {
    row.clear();
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      row.emplace_back(col_idx[k], values[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [col, value] : row) {
      if (new_col.size() > new_ptr[r] && new_col.back() == col) {
        new_val.back() += value;  // duplicate: accumulate
      } else {
        new_col.push_back(col);
        new_val.push_back(value);
      }
    }
    new_ptr[r + 1] = new_col.size();
  }
  row_ptr = std::move(new_ptr);
  col_idx = std::move(new_col);
  values = std::move(new_val);
}

namespace {

/// One row of y = A x: two independent accumulators over even/odd entry
/// pairs, summed as acc0 + acc1.
double row_dot(const CsrMatrix& a, std::size_t r, const double* x) {
  const std::uint32_t* cols = a.col_idx.data();
  const double* vals = a.values.data();
  const std::size_t hi = a.row_ptr[r + 1];
  double acc0 = 0.0;
  double acc1 = 0.0;
  std::size_t k = a.row_ptr[r];
  for (; k + 1 < hi; k += 2) {
    acc0 += vals[k] * x[cols[k]];
    acc1 += vals[k + 1] * x[cols[k + 1]];
  }
  if (k < hi) acc0 += vals[k] * x[cols[k]];
  return acc0 + acc1;
}

}  // namespace

void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y) {
  PLIN_CHECK_MSG(x.size() == a.cols && y.size() == a.rows,
                 "spmv: vector shape mismatch");
  for (std::size_t r = 0; r < a.rows; ++r) y[r] = row_dot(a, r, x.data());
}

void spmv_rows(const CsrMatrix& a, std::span<const double> x,
               std::span<double> y, std::span<const std::uint32_t> rows) {
  PLIN_CHECK_MSG(x.size() == a.cols && y.size() == a.rows,
                 "spmv_rows: vector shape mismatch");
  for (const std::uint32_t r : rows) y[r] = row_dot(a, r, x.data());
}

CsrMatrix make_empty(std::size_t rows, std::size_t cols) {
  CsrMatrix a;
  a.rows = rows;
  a.cols = cols;
  a.row_ptr.assign(rows + 1, 0);
  return a;
}

double inf_norm(const CsrMatrix& a) {
  double norm = 0.0;
  for (std::size_t r = 0; r < a.rows; ++r) {
    double sum = 0.0;
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      sum += std::fabs(a.values[k]);
    }
    norm = std::max(norm, sum);
  }
  return norm;
}

double scaled_residual(const CsrMatrix& a, std::span<const double> x,
                       std::span<const double> b) {
  PLIN_CHECK_MSG(a.rows == a.cols, "sparse residual: A must be square");
  PLIN_CHECK_MSG(x.size() == a.cols && b.size() == a.rows,
                 "sparse residual: vector shape mismatch");
  std::vector<double> ax(a.rows, 0.0);
  spmv(a, x, std::span<double>(ax));
  double num = 0.0;
  double x_norm = 0.0;
  for (std::size_t i = 0; i < a.rows; ++i) {
    num = std::max(num, std::fabs(ax[i] - b[i]));
    x_norm = std::max(x_norm, std::fabs(x[i]));
  }
  const double denom =
      inf_norm(a) * x_norm * static_cast<double>(a.rows);
  return denom == 0.0 ? num : num / denom;
}

}  // namespace plin::sparse
