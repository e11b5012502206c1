// Deterministic test-system generation.
//
// The paper loads its linear system from a file "to ensure consistent input
// data for repetitive measurements". We achieve the same reproducibility
// with a pure function of (seed, i, j): every rank can materialize exactly
// its local pieces of the same global system without any communication —
// the distributed analogue of every rank reading the same input file.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace plin::linalg {

/// Coefficient a(i, j) of the generated system. Off-diagonal entries are
/// uniform in [-1, 1]; the diagonal is n + 1 to make the matrix strictly
/// diagonally dominant (both solvers are then stable; IMe uses no pivoting).
double system_entry(std::uint64_t seed, std::size_t n, std::size_t i,
                    std::size_t j);

/// Right-hand side b(i), uniform in [-1, 1].
double rhs_entry(std::uint64_t seed, std::size_t n, std::size_t i);

/// Materializes the full n x n system (numeric-tier scale only).
Matrix generate_system_matrix(std::uint64_t seed, std::size_t n);
std::vector<double> generate_rhs(std::uint64_t seed, std::size_t n);

}  // namespace plin::linalg
