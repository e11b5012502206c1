// Analytic replay of the distributed CG solver (see solvers/cg/cg.cpp for
// the executed twin and its one iteration shape). Each iteration prices the
// overlapped halo — max(halo exchange, interior SpMV) followed by the
// boundary-row SpMV — then the fused small-vector allreduce that carries
// the iteration's dot products in one latency round, and the axpy updates.
// The Jacobi preconditioner adds one per-row vector op and widens the
// fused round from 3 to 5 scalars; the iteration count comes from the
// classic CG error bound at the family's Gershgorin condition estimate
// (unchanged by Jacobi — the generated families leave kappa where it was).
// Setup prices the CSR slice allocation and the scalar rounds; the
// neighbour-only halo negotiation (O(neighbours) small messages, once) is
// left out, and teardown is the solution gather to rank 0.
#include <algorithm>
#include <cmath>

#include "hwmodel/sparse.hpp"
#include "perfsim/activity.hpp"
#include "perfsim/simulator.hpp"
#include "support/error.hpp"

namespace plin::perfsim {

int cg_model_iters(sparse::SparseKind kind, double tolerance) {
  PLIN_CHECK_MSG(tolerance > 0.0 && tolerance < 1.0,
                 "perfsim: cg tolerance out of range");
  const double kappa = 2.0 * sparse::pattern_offdiag_sum(kind) + 1.0;
  const double rho =
      (std::sqrt(kappa) - 1.0) / (std::sqrt(kappa) + 1.0);
  const double iters =
      std::ceil(std::log(2.0 / tolerance) / -std::log(rho));
  return std::max(1, static_cast<int>(iters));
}

Prediction predict_cg(const hw::MachineSpec& machine,
                      const hw::Placement& placement, std::size_t n,
                      sparse::SparseKind kind, double tolerance,
                      solvers::CgPrecond precond) {
  PLIN_CHECK_MSG(n > 0, "perfsim: empty system");
  const hw::ClusterLayout layout(machine, placement);
  const hw::NetworkModel network(machine.network);
  const int ranks = placement.ranks;
  const double ovh = network.per_message_overhead();
  const int sharers =
      std::max(placement.ranks_socket0, placement.ranks_socket1);
  const hw::LinkClass worst =
      placement.nodes > 1
          ? hw::LinkClass::kCrossNode
          : (placement.sockets_used == 2 ? hw::LinkClass::kCrossSocket
                                         : hw::LinkClass::kSameSocket);
  std::vector<int> world_members;
  for (int r = 0; r < ranks; ++r) world_members.push_back(r);

  const bool jacobi = precond == solvers::CgPrecond::kJacobi;
  const int iterations = cg_model_iters(kind, tolerance);
  const double nnz = static_cast<double>(sparse::pattern_nnz(kind, n));
  const double nnz_rank = nnz / ranks;
  const std::size_t chunk =
      (n + static_cast<std::size_t>(ranks) - 1) / ranks;
  const double rows = static_cast<double>(chunk);
  const double chunk_bytes = 8.0 * rows;
  const double x_bytes = chunk_bytes * static_cast<double>(ranks);

  Prediction prediction;
  const double bw_share =
      machine.node.socket.dram_bandwidth_bs / std::max(1, sharers);

  // Allocation: each rank's CSR slice (8-byte values + 4-byte indices +
  // row offsets — the same streams CsrMatrix::size_bytes walks).
  const double slice_bytes = 12.0 * nnz_rank + 8.0 * (rows + 1.0);
  double T = slice_bytes / bw_share;

  // Per iteration, on the critical path:
  //   halo — each boundary rank trades ghost values with both neighbors;
  //     the ghost count per side is the pattern's reach clipped to the
  //     block (a rank cannot need more ghosts than a neighbor owns). The
  //     overlapped exchange hides behind the interior SpMV;
  const double ghost_vals = static_cast<double>(
      std::min(sparse::pattern_reach(kind, n), chunk));
  const double t_halo =
      ranks > 1
          ? 2.0 * (ovh + network.transfer_time(worst, 8.0 * ghost_vals))
          : 0.0;
  //   SpMV — the sparse bytes/flop is a property of the matrix, not a
  //     constant, so the profile is assembled per call. The interior /
  //     boundary split mirrors the solver's: at most 2 * reach rows touch
  //     a ghost column, and the boundary nnz scales with the row share;
  const solvers::KernelProfile spmv_profile{
      solvers::kSpmv.efficiency,
      hw::csr_spmv_bytes_per_flop(nnz_rank, rows)};
  const double spmv_flops = 2.0 * nnz_rank;
  const double rows_boundary =
      ranks > 1 ? hw::csr_boundary_rows(
                      static_cast<double>(sparse::pattern_reach(kind, n)),
                      rows)
                : 0.0;
  const double boundary_share = rows > 0.0 ? rows_boundary / rows : 0.0;
  const double t_spmv_boundary =
      kernel_time(machine, sharers, spmv_profile,
                  spmv_flops * boundary_share)
          .seconds;
  const double t_spmv_interior =
      kernel_time(machine, sharers, spmv_profile,
                  spmv_flops * (1.0 - boundary_share))
          .seconds;
  const double t_spmv_phase =
      std::max(t_halo, t_spmv_interior) + t_spmv_boundary;
  //   the fused dot round — `terms` local partials (p.q, r.q, q.q, plus
  //     z.q and q.M^-1 q under Jacobi) combined in ONE small-vector
  //     allreduce instead of per-scalar rounds. The single accumulation
  //     pass streams each distinct vector once (p, r, q [, z, d]), so its
  //     DRAM term is per vector — 4 bytes/flop instead of kDot's 8;
  const double terms = jacobi ? 5.0 : 3.0;
  const double dot_flops = 2.0 * rows;
  const double t_dot =
      kernel_time(machine, sharers, solvers::kDot, dot_flops).seconds;
  const solvers::KernelProfile fused_pass{solvers::kDot.efficiency, 4.0};
  const double t_fused_pass =
      kernel_time(machine, sharers, fused_pass, terms * dot_flops).seconds;
  const double t_round_scalar =
      2.0 * tree_time(layout, network, world_members, 8.0);
  const double t_round_fused =
      2.0 * tree_time(layout, network, world_members, 8.0 * terms);
  //   axpy updates — x/r (4 flops per row) and the p refresh (2 per row),
  //     plus the Jacobi z = M^-1 r sweep (1 mul per row, 24 bytes).
  const double axpy_flops = 6.0 * rows;
  const double t_axpy =
      kernel_time(machine, sharers, solvers::kAxpy, axpy_flops).seconds;
  const double t_z =
      jacobi ? kernel_time(machine, sharers, solvers::kAxpy, rows).seconds
             : 0.0;

  const double t_iter = t_spmv_phase + t_fused_pass + t_round_fused +
                        t_axpy + t_z;
  // Setup rounds (||b||, the nnz reduction, and r.z under Jacobi) are
  // scalar allreduces.
  const double setup_rounds = jacobi ? 3.0 : 2.0;
  T += setup_rounds * (t_dot + t_round_scalar);
  T += static_cast<double>(iterations) * t_iter;

  // Final solution gather to rank 0 (the executed padded gather's fan-in,
  // no broadcast) plus rank 0's ingestion of the iterate.
  const double t_gather =
      ranks > 1 ? static_cast<double>(ranks - 1) * ovh +
                      network.transfer_time(worst, chunk_bytes) +
                      x_bytes / bw_share
                : 0.0;
  T += t_gather;

  prediction.duration_s = T;
  // Exposed comm: the halo time not hidden by the interior SpMV, plus the
  // fused round, plus setup rounds and the gather.
  prediction.comm_s =
      static_cast<double>(iterations) *
          (std::max(t_halo - t_spmv_interior, 0.0) + t_round_fused) +
      setup_rounds * t_round_scalar + t_gather;
  prediction.compute_s = T - prediction.comm_s;

  // Per-rank activity for energy.
  const double iters_d = static_cast<double>(iterations);
  std::vector<RankActivity> per_rank(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    RankActivity& a = per_rank[static_cast<std::size_t>(r)];
    charge_kernel(a, machine, sharers, spmv_profile, iters_d * spmv_flops);
    charge_kernel(a, machine, sharers, fused_pass,
                  terms * iters_d * dot_flops);
    charge_kernel(a, machine, sharers, solvers::kDot,
                  setup_rounds * dot_flops);
    charge_kernel(a, machine, sharers, solvers::kAxpy,
                  iters_d * (axpy_flops + (jacobi ? rows : 0.0)));
    a.membound_s += slice_bytes / bw_share;
    // Only the gather root ingests the full iterate.
    if (r == 0) a.membound_s += x_bytes / bw_share;
    a.dram_bytes += slice_bytes;
    // Halo traffic + the fused round's hops + the final gather, spread
    // evenly: per iteration 4 halo messages (2 out, 2 in) and ~2 tree hops
    // for the fused allreduce, then the gather's one chunk per rank.
    charge_messages(a, network, iters_d * (4.0 + 2.0) + 1.0,
                    iters_d * (2.0 * 8.0 * ghost_vals + 2.0 * 8.0 * terms) +
                        chunk_bytes);
  }
  fill_energy(prediction, machine, layout, per_rank, T);
  return prediction;
}

}  // namespace plin::perfsim
