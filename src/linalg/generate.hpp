// Deterministic test-system generation.
//
// The paper loads its linear system from a file "to ensure consistent input
// data for repetitive measurements". We achieve the same reproducibility
// with a pure function of (seed, i, j): every rank can materialize exactly
// its local pieces of the same global system without any communication —
// the distributed analogue of every rank reading the same input file.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace plin::linalg {

/// Coefficient a(i, j) of the generated system. Off-diagonal entries are
/// uniform in [-1, 1]; the diagonal is n + 1 to make the matrix strictly
/// diagonally dominant (both solvers are then stable; IMe uses no pivoting).
double system_entry(std::uint64_t seed, std::size_t n, std::size_t i,
                    std::size_t j);

/// Writes a(i, j0 .. j0 + out.size()) into `out`, bit for bit the values
/// system_entry returns. The row's hash is computed once and the per-entry
/// hash is integer-only, so the loop vectorizes (docs/kernels.md, "System
/// generation"). Every solver generates its local pieces through it.
void system_row(std::uint64_t seed, std::size_t n, std::size_t i,
                std::size_t j0, std::span<double> out);

/// Right-hand side b(i), uniform in [-1, 1].
double rhs_entry(std::uint64_t seed, std::size_t n, std::size_t i);

/// Materializes the full n x n system (numeric-tier scale only).
Matrix generate_system_matrix(std::uint64_t seed, std::size_t n);
std::vector<double> generate_rhs(std::uint64_t seed, std::size_t n);

/// scaled_residual(generate_system_matrix(seed, n), x, b), bit for bit,
/// without materializing the matrix: each row is generated into one
/// n-element buffer and fed through the same residual and norm kernels, so
/// the reference system costs O(n) memory instead of n^2 doubles.
double generated_residual(std::uint64_t seed, std::size_t n,
                          std::span<const double> x,
                          std::span<const double> b);

}  // namespace plin::linalg
