#include "linalg/generate.hpp"

#include <algorithm>

#include "linalg/kernels.hpp"
#include "support/error.hpp"

namespace plin::linalg {
namespace {

/// SplitMix64 finalizer — a high-quality 64-bit mix used as a stateless
/// hash so that entry (i, j) is independent of evaluation order.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

/// The hash every off-diagonal entry of row i starts from.
std::uint64_t row_hash(std::uint64_t seed, std::size_t i) {
  return mix(seed ^ (0xA5A5ULL + i));
}

/// Off-diagonal a(i, j) from its row's hash, and the diagonal: the one
/// definition of the entry formula, shared by system_entry and system_row.
inline double off_diagonal_entry(std::uint64_t row, std::size_t j) {
  return 2.0 * unit_uniform(mix(row ^ (j * 0x9E37ULL + 1))) - 1.0;
}

inline double diagonal_entry(std::size_t n) {
  return static_cast<double>(n) + 1.0;
}

}  // namespace

double system_entry(std::uint64_t seed, std::size_t n, std::size_t i,
                    std::size_t j) {
  if (i == j) return diagonal_entry(n);
  return off_diagonal_entry(row_hash(seed, i), j);
}

void system_row(std::uint64_t seed, std::size_t n, std::size_t i,
                std::size_t j0, std::span<double> out) {
  const std::uint64_t row = row_hash(seed, i);
  double* const o = out.data();
  const std::size_t len = out.size();
  for (std::size_t k = 0; k < len; ++k) o[k] = off_diagonal_entry(row, j0 + k);
  if (i >= j0 && i - j0 < len) o[i - j0] = diagonal_entry(n);
}

double rhs_entry(std::uint64_t seed, std::size_t n, std::size_t i) {
  const std::uint64_t h = mix(mix(seed ^ 0xB0B0ULL) ^ (i + n));
  return 2.0 * unit_uniform(h) - 1.0;
}

Matrix generate_system_matrix(std::uint64_t seed, std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) system_row(seed, n, i, 0, a.row(i));
  return a;
}

std::vector<double> generate_rhs(std::uint64_t seed, std::size_t n) {
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rhs_entry(seed, n, i);
  return b;
}

double generated_residual(std::uint64_t seed, std::size_t n,
                          std::span<const double> x,
                          std::span<const double> b) {
  PLIN_CHECK_MSG(n > 0, "dense residual: empty system");
  PLIN_CHECK_MSG(x.size() == n && b.size() == n,
                 "dense residual: vector shape mismatch");
  // A 1 x n view runs each row through the kernels scaled_residual uses on
  // the full matrix. A row's dot product and absolute sum do not depend on
  // the rows around it, and max is exact, so the running maxima are
  // scaled_residual's bits.
  std::vector<double> row(n);
  const ConstMatrixView view(row.data(), 1, n, n);
  double num = 0.0;
  double a_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    system_row(seed, n, i, 0, row);
    num = std::max(num, residual_inf_norm(view, x, b.subspan(i, 1)));
    a_norm = std::max(a_norm, matrix_inf_norm(view));
  }
  const double denom = a_norm * vector_inf_norm(x) * static_cast<double>(n);
  return denom == 0.0 ? num : num / denom;
}

}  // namespace plin::linalg
