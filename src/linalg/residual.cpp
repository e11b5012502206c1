// The dense residual check. It lives outside kernels.cpp so that it builds
// under the library-wide -ffp-contract=off (src/CMakeLists.txt): every
// product is rounded and each row's sum runs in index order, whatever the
// optimization level. GCC at -O3 vectorizes that sum as an in-order
// reduction of rounded products; at -O2 it stays scalar, where contraction
// would fuse every step and give the residual other bits.
#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "support/error.hpp"

namespace plin::linalg {

double residual_inf_norm(ConstMatrixView a, std::span<const double> x,
                         std::span<const double> b) {
  PLIN_CHECK_MSG(a.cols() == x.size() && a.rows() == b.size(),
                 "residual shape mismatch");
  double norm = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i).data();
    double dot = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) dot += row[j] * x[j];
    norm = std::max(norm, std::fabs(dot - b[i]));
  }
  return norm;
}

double scaled_residual(ConstMatrixView a, std::span<const double> x,
                       std::span<const double> b) {
  const double num = residual_inf_norm(a, x, b);
  const double denom = matrix_inf_norm(a) * vector_inf_norm(x) *
                       static_cast<double>(a.rows());
  return denom == 0.0 ? num : num / denom;
}

}  // namespace plin::linalg
