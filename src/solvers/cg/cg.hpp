// Conjugate gradient on CSR matrices — the memory-bound workload family
// next to the dense GEPP/IMe verticals (docs/sparse.md). All generated
// families are SPD by construction (sparse/generate.hpp), so plain
// (unpreconditioned) CG converges with the textbook guarantee.
//
// The distributed solver owns contiguous row blocks (the
// chunk = ceil(n / P) arithmetic placement), generates its block
// locally from (kind, seed, n), trades ghost-column requests with its halo
// neighbours only (the generated patterns are structurally symmetric), runs
// one iteration shape, and gathers the solution to rank 0:
//   - overlapped halo: local rows are split once at setup into *interior*
//     rows (touch no ghost column) and *boundary* rows; per iteration the
//     halo irecv/isends are posted, the interior SpMV runs while the ghost
//     values are in flight, and the boundary rows finish after wait_all.
//     Per-row accumulation order is that of a whole-block SpMV, so the
//     split moves simulated time (and hence energy) only.
//   - fused iteration collectives: the per-iteration scalar reductions
//     collapse into one small-vector allreduce (element-wise,
//     rank-order-preserving combine, so each element is bitwise the value
//     a scalar round would have produced), and ||r||^2 advances by the
//     standard recurrence rr' = rr - 2 a (r.q) + a^2 (q.q) instead of a
//     second round. The recurrence carries a frozen eps * ||b||^2-scale
//     rounding offset (the attainable-accuracy limit of single-reduction
//     CG), so it is guarded by residual replacement: once the recurrence
//     value dips under 1e-12 * ||b||^2, ||r||^2 is re-measured with a
//     direct round — every rank takes the same branch because the
//     recurrence inputs are replicated bitwise.
// The sequential solve_cg is the test oracle. Its first iterate is bitwise
// that of solve_pcg at P = 1; after that the recurrence legitimately
// re-brackets the residual trajectory, so the two may terminate +-1
// iteration apart. solve_pcg honors the repo's determinism contract:
// results are bit-identical across worker counts and collective modes.
#pragma once

#include <cstdint>
#include <vector>

#include "solvers/cg/precond.hpp"
#include "sparse/csr.hpp"
#include "sparse/generate.hpp"
#include "xmpi/comm.hpp"

namespace plin::solvers {

struct CgOptions {
  sparse::SparseKind kind = sparse::SparseKind::kStencil5;
  std::size_t n = 0;
  std::uint64_t seed = 1;
  /// Relative-residual termination: ||r||_2 <= tolerance * ||b||_2.
  double tolerance = 1e-11;
  int max_iterations = 1000;
  CgPrecond precond = CgPrecond::kNone;
};

struct CgResult {
  /// Full solution on rank 0 (gathered there once at exit); empty on every
  /// other rank.
  std::vector<double> x;
  int iterations = 0;
  bool converged = false;
  double relative_residual = 0.0;  // ||r||_2 / ||b||_2 at exit
  std::size_t nnz = 0;             // global pattern nnz actually streamed
};

/// Sequential reference: (preconditioned) CG on an explicit matrix and
/// right-hand side, with direct (unfused) dot products.
CgResult solve_cg(const sparse::CsrMatrix& a, const std::vector<double>& b,
                  double tolerance, int max_iterations,
                  CgPrecond precond = CgPrecond::kNone);

/// Distributed CG on `comm`; the system is generated from
/// (kind, seed, n) like the other solvers. Call from every rank; only rank
/// 0's result carries `x`.
CgResult solve_pcg(xmpi::Comm& comm, const CgOptions& options);

}  // namespace plin::solvers
