#include "linalg/generate.hpp"

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

}  // namespace

double system_entry(std::uint64_t seed, std::size_t n, std::size_t i,
                    std::size_t j) {
  if (i == j) return static_cast<double>(n) + 1.0;
  const std::uint64_t h = mix(mix(seed ^ (0xA5A5ULL + i)) ^ (j * 0x9E37ULL + 1));
  return 2.0 * unit_uniform(h) - 1.0;
}

double rhs_entry(std::uint64_t seed, std::size_t n, std::size_t i) {
  const std::uint64_t h = mix(mix(seed ^ 0xB0B0ULL) ^ (i + n));
  return 2.0 * unit_uniform(h) - 1.0;
}

Matrix generate_system_matrix(std::uint64_t seed, std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = system_entry(seed, n, i, j);
  }
  return a;
}

std::vector<double> generate_rhs(std::uint64_t seed, std::size_t n) {
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rhs_entry(seed, n, i);
  return b;
}

}  // namespace plin::linalg
