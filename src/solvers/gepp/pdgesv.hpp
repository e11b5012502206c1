// pdgesv — ScaLAPACK-style parallel Gaussian elimination with partial
// pivoting on a 2-D block-cyclic distribution, plus the distributed
// triangular solves, implemented over xmpi.
//
// Structure mirrors ScaLAPACK's pdgetrf/pdgetrs:
//   * the matrix lives in nb x nb blocks dealt onto a prows x pcols grid;
//   * panel factorization runs inside one process column: per column, a
//     MAXLOC allreduce finds the pivot, the owners of the two rows exchange
//     segments, and the pivot row is broadcast down the process column;
//   * after each panel the pivot array travels along the process row, all
//     process columns apply the row interchanges to their leading/trailing
//     columns, the L panel is broadcast row-wise, the U12 row block is
//     solved in the pivot process row and broadcast column-wise, and every
//     rank runs its local trailing GEMM;
//   * the solve phase keeps the right-hand side replicated: per diagonal
//     block, partial dot products reduce along the process row, the block
//     owner solves the small triangle and broadcasts the solution piece.
//
// The factorization and the solve are the fp64 instantiation of the one
// precision-templated LU in pdlu.hpp, which gepp_mixed runs at float for
// its fp32 factorization and at double for its fallback. A singular matrix
// (a pivot column with no nonzero candidate) reaches every rank through
// the pivot-index broadcast, so pdgetrf throws "pdgesv: matrix is
// singular" on all ranks together.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/blockcyclic.hpp"
#include "solvers/efficiency.hpp"
#include "solvers/gepp/pdlu.hpp"
#include "xmpi/comm.hpp"

namespace plin::solvers {

struct PdgesvOptions {
  std::size_t n = 0;       // system dimension
  std::uint64_t seed = 1;  // generator seed (same system on every rank)
  std::size_t nb = kDefaultBlock;
};

struct PdgesvResult {
  std::vector<double> x;  // replicated solution
  linalg::ProcessGrid grid;
  std::vector<std::size_t> pivots;  // global pivot rows, one per column
};

/// Runs the distributed LU solve on `comm` for the system generated from
/// (seed, n). Call from every rank of the communicator.
PdgesvResult solve_pdgesv(xmpi::Comm& comm, const PdgesvOptions& options);

class PdluFactorization;
struct PdgetrfFtOptions;
struct PdgetrfFtResult;
PdgetrfFtResult pdgetrf_checkpointed(xmpi::Comm& comm,
                                     const PdgetrfFtOptions& options);

/// A completed distributed factorization (this rank's share of PA = LU
/// plus the communicators and descriptor needed to solve against it).
/// Factor once with pdgetrf, then solve any number of right-hand sides —
/// the 2/3 n^3 factorization cost is paid once, each solve is O(n^2 / P)
/// plus collectives (the standard LAPACK-style amortization).
class PdluFactorization {
 public:
  std::size_t n() const { return grid_.desc.n; }
  std::size_t nb() const { return grid_.desc.nb; }
  const linalg::ProcessGrid& grid() const { return grid_.desc.grid; }
  const std::vector<std::size_t>& pivots() const { return factors_.pivots; }

  /// pdgetrs: solves A x = rhs using this factorization. `rhs` must be the
  /// full-length right-hand side, replicated on every rank (all ranks pass
  /// the same values); the returned solution is replicated too. Must be
  /// called collectively, in the same order, by every rank that factored.
  std::vector<double> solve(std::vector<double> rhs) const;

 private:
  friend PdluFactorization pdgetrf(xmpi::Comm& comm,
                                   const PdgesvOptions& options);
  friend PdgetrfFtResult pdgetrf_checkpointed(xmpi::Comm& comm,
                                              const PdgetrfFtOptions& options);

  PdluFactorization(pdlu::Grid grid, pdlu::Factors<double> factors)
      : grid_(std::move(grid)), factors_(std::move(factors)) {}

  // Communicators captured at factorization time; valid for the lifetime
  // of the xmpi run that produced them.
  mutable pdlu::Grid grid_;
  pdlu::Factors<double> factors_;  // factored local tiles + pivots
};

/// Distributed LU factorization with partial pivoting of the system matrix
/// generated from (seed, n). Call collectively from every rank.
PdluFactorization pdgetrf(xmpi::Comm& comm, const PdgesvOptions& options);

// ---- checkpoint/restart fault tolerance -----------------------------------
//
// The paper motivates IMe by noting its "integrated low-cost multiple
// fault tolerance, which is more efficient than the checkpoint/restart
// technique usually applied in Gaussian Elimination" (§2, citing Artioli
// et al. 2019). This is that baseline: coordinated in-memory checkpoints
// of the factorization state every k panels, with rollback + recompute on
// a fault. bench_ft_comparison puts the two techniques side by side.

struct PdgetrfFtOptions {
  PdgesvOptions base;
  /// Take a coordinated checkpoint every this many panels.
  std::size_t checkpoint_every_panels = 8;
  /// Diskless partner checkpointing: additionally ship each snapshot to a
  /// partner rank (rank ^ 1), paying the network cost a real in-memory
  /// checkpoint scheme pays to survive a node loss. Off = local snapshots
  /// only (survives process state corruption, as injected by the hook).
  bool partner_copy = false;
  /// Test hook: lose the in-flight factorization state just before this
  /// panel (0-based), forcing a rollback to the last checkpoint.
  std::optional<std::size_t> inject_fault_at_panel;
};

struct PdgetrfFtResult {
  PdluFactorization factorization;
  int checkpoints_taken = 0;
  int restarts = 0;
  std::size_t panels_recomputed = 0;
};

/// pdgetrf_checkpointed (declared above PdluFactorization): checkpointed
/// distributed LU. Every rank snapshots its local tiles and the pivot
/// array at each checkpoint (the memory traffic is charged to the energy
/// ledger); a fault rolls every rank back and recomputes the lost panels.
/// Call collectively.

}  // namespace plin::solvers
