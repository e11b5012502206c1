// pdlu — the one distributed block-cyclic LU with partial pivoting behind
// pdgesv, pdgetrf_checkpointed and gepp_mixed (fp32 factorization and fp64
// fallback), templated over the scalar type the way SLATE's getrf<scalar_t>
// serves both its fp64 solve and gesvMixed. Definitions and the explicit
// float/double instantiations live in pdlu.cpp.
//
// A factorization is a Grid (the process grid and its communicators) plus
// this rank's Factors<T> (local tiles and the replicated pivot array).
// Callers own their panel loop (plain in pdgetrf, checkpoint/rollback in
// pdgetrf_checkpointed, fp32 then fp64 in gepp_mixed) and call
// `factor_one_panel` once per panel.
//
// Dead pivots: when a column has no pivot > 0 (all zero in precision T, or
// NaN) the panel column writes kDeadPivot into its pivot slot and stops.
// The pivot-index broadcast every panel already sends along the process
// rows then carries that verdict to every rank, so all ranks return false
// from the same panel without a dedicated flag message.
//
// Phases are named after T: gepp:* at double, gepp32:* at float. Each
// charge carries T's precision tag and sizeof(T)/sizeof(double) of the
// fp64-calibrated bytes per flop, so at double every charge is exactly the
// fp64 one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "linalg/blockcyclic.hpp"
#include "linalg/matrix.hpp"
#include "solvers/efficiency.hpp"
#include "xmpi/comm.hpp"

namespace plin::solvers::pdlu {

/// The pivot-slot sentinel of a dead pivot column.
inline constexpr std::size_t kDeadPivot =
    std::numeric_limits<std::size_t>::max();

/// The precision tag the hardware model prices a T kernel at.
template <typename T>
inline constexpr xmpi::Precision kPrecision =
    std::is_same_v<T, float> ? xmpi::Precision::kFp32 : xmpi::Precision::kFp64;

/// The hardware-model charge for `flops` of a kernel with `profile`, run in
/// precision T. The profiles are calibrated for fp64; an fp32 kernel does
/// the same flops but streams half the bytes per flop.
template <typename T>
xmpi::ComputeCost cost_of(const KernelProfile& profile, double flops) {
  constexpr double kWidth =
      static_cast<double>(sizeof(T)) / static_cast<double>(sizeof(double));
  return xmpi::ComputeCost{flops, flops * profile.bytes_per_flop * kWidth,
                           profile.efficiency, kPrecision<T>};
}

/// Everything a factorization needs to know about "me": the squarest
/// process grid over the communicator, split into process rows and columns.
struct Grid {
  xmpi::Comm world;
  xmpi::Comm row_comm;  // my process row, ranked by pcol
  xmpi::Comm col_comm;  // my process column, ranked by prow
  linalg::BlockCyclicDesc desc;
  int myrow = 0;
  int mycol = 0;

  std::size_t local_rows_below(std::size_t g) const {
    return linalg::numroc(g, desc.mb, myrow, desc.grid.prows);
  }
  std::size_t local_cols_below(std::size_t g) const {
    return linalg::numroc(g, desc.nb, mycol, desc.grid.pcols);
  }
};

/// Splits `comm` into the process rows and columns of an n x n system in
/// nb x nb blocks. Collective.
Grid make_grid(xmpi::Comm& comm, std::size_t n, std::size_t nb);

/// This rank's share of PA = LU (L below the diagonal, U on and above) and
/// the global pivot rows, one per column.
template <typename T>
struct Factors {
  std::vector<std::size_t> pivots;
  linalg::BasicMatrix<T> local;
};

/// This rank's tiles of `entry_scale` times the system generated from
/// (seed, n), rounded to T (the "setup" phase).
template <typename T>
Factors<T> generate(Grid& grid, std::uint64_t seed, double entry_scale);

/// Buffers reused across panels.
template <typename T>
struct Workspace {
  std::vector<T> swap_outgoing;
  std::vector<T> swap_incoming;
  linalg::BasicMatrix<T> panel_slab;  // received L panel (my rows >= k0, w)
  linalg::BasicMatrix<T> u12;         // received U12 block (w x my trail)
};

/// One right-looking step at global column k0: panel, pivot exchange, row
/// interchanges, slab/U12 broadcasts and the trailing GEMM. Returns false
/// on every rank when the panel hit a dead pivot; the factors are then
/// meaningless.
template <typename T>
bool factor_one_panel(Grid& grid, Factors<T>& f, std::size_t k0,
                      Workspace<T>& ws);

/// pdgetrs in precision T against a replicated fp64 right-hand side: the
/// rhs is narrowed once, both block substitutions run in T and the
/// replicated solution is widened back. Collective.
template <typename T>
std::vector<double> solve(Grid& grid, const Factors<T>& f,
                          std::vector<double> rhs);

}  // namespace plin::solvers::pdlu
