// Analytic replay of the ScaLAPACK-style LU (see solvers/gepp/pdlu.cpp
// for the executed twin). LU is bulk-synchronous per panel — the pivot
// allreduce serializes the panel process column per matrix column — so the
// critical path is the sum over panels of communication plus the slowest
// rank's compute in each stage.
//
// The same walk prices the mixed-precision GEPP variant
// (solvers/gepp/mixed.cpp, the same LU at float): factorization and triangular solves at fp32
// payloads (4-byte elements, twice the per-core peak), then
// refinement_iters(n) fp64 refinement sweeps, each a distributed residual
// GEMV plus an fp32 correction solve plus the norm/solution collectives.
#include <algorithm>
#include <cmath>

#include "linalg/blockcyclic.hpp"
#include "perfsim/activity.hpp"
#include "perfsim/simulator.hpp"
#include "support/error.hpp"

namespace plin::perfsim {
namespace {

/// Local rows owned by process row p with global index >= g.
std::size_t rows_geq(const linalg::BlockCyclicDesc& desc, int p,
                     std::size_t g) {
  return linalg::numroc(desc.m, desc.mb, p, desc.grid.prows) -
         linalg::numroc(std::min(g, desc.m), desc.mb, p, desc.grid.prows);
}
std::size_t cols_geq(const linalg::BlockCyclicDesc& desc, int q,
                     std::size_t g) {
  return linalg::numroc(desc.n, desc.nb, q, desc.grid.pcols) -
         linalg::numroc(std::min(g, desc.n), desc.nb, q, desc.grid.pcols);
}

/// Shared LU walk. `mixed` prices factorization + solves at fp32 (elem =
/// 4 bytes, fp32 kernel pricing) and appends the fp64 refinement sweeps;
/// otherwise every constant reduces to the original fp64 literals, keeping
/// the fp64 prediction bit-identical to the pre-mixed model.
Prediction scalapack_model(const hw::MachineSpec& machine,
                           const hw::Placement& placement, std::size_t n,
                           std::size_t nb, bool mixed) {
  PLIN_CHECK_MSG(n > 0, "perfsim: empty system");
  PLIN_CHECK_MSG(nb > 0, "perfsim: block size must be positive");
  const hw::ClusterLayout layout(machine, placement);
  const hw::NetworkModel network(machine.network);
  const int ranks = placement.ranks;
  const double ovh = network.per_message_overhead();
  const int sharers =
      std::max(placement.ranks_socket0, placement.ranks_socket1);

  const bool f32 = mixed;          // factorization/solve element precision
  const double elem = f32 ? 4.0 : 8.0;  // bytes per matrix element

  const linalg::ProcessGrid grid = linalg::ProcessGrid::squarest(ranks);
  const linalg::BlockCyclicDesc desc{n, n, nb, nb, grid};

  // Communicator link classes: a process row is pcols consecutive ranks, a
  // process column is prows ranks strided by pcols.
  std::vector<int> row_members;
  for (int q = 0; q < grid.pcols; ++q) row_members.push_back(q);
  std::vector<int> col_members;
  for (int p = 0; p < grid.prows; ++p) col_members.push_back(p * grid.pcols);
  std::vector<int> world_members;
  for (int r = 0; r < ranks; ++r) world_members.push_back(r);
  const hw::LinkClass link_col = group_link(layout, col_members);
  const auto col_tree = [&](double bytes) {
    return tree_time(layout, network, col_members, bytes);
  };
  const auto row_tree = [&](double bytes) {
    return tree_time(layout, network, row_members, bytes);
  };
  const double offrow_frac =
      grid.prows > 1 ? 1.0 - 1.0 / grid.prows : 0.0;

  std::vector<RankActivity> per_rank(static_cast<std::size_t>(ranks));
  Prediction prediction;
  double T = 0.0;
  double comm_total = 0.0;
  double msg_events = 0.0;
  double msg_bytes = 0.0;

  const auto add_comm = [&](double seconds, double count, double bytes) {
    T += seconds;
    comm_total += seconds;
    msg_events += 2.0 * count;  // send + receive side
    msg_bytes += 2.0 * bytes;
  };
  const auto add_compute = [&](const solvers::KernelProfile& profile,
                               double max_flops, bool fp32 = false) {
    T += kernel_time(machine, sharers, profile, max_flops, fp32).seconds;
  };

  // ---- allocation phase ------------------------------------------------------
  // Mixed keeps the fp64 operand and first-touches the fp32 working copy on
  // top of it (solvers/gepp/mixed.cpp), so 12 bytes per local element.
  const double alloc_bytes = mixed ? 12.0 : 8.0;
  std::size_t max_local = 0;
  for (int p = 0; p < grid.prows; ++p) {
    for (int q = 0; q < grid.pcols; ++q) {
      max_local = std::max(max_local, desc.local_rows(p) * desc.local_cols(q));
    }
  }
  const double bw_share =
      machine.node.socket.dram_bandwidth_bs / std::max(1, sharers);
  T += alloc_bytes * static_cast<double>(max_local) / bw_share;
  for (int r = 0; r < ranks; ++r) {
    RankActivity& a = per_rank[static_cast<std::size_t>(r)];
    const std::size_t mine = desc.local_rows(grid.row_of(r)) *
                             desc.local_cols(grid.col_of(r));
    a.membound_s += alloc_bytes * static_cast<double>(mine) / bw_share;
    a.dram_bytes += alloc_bytes * static_cast<double>(mine);
  }

  // ---- factorization -----------------------------------------------------------
  for (std::size_t k0 = 0; k0 < n; k0 += nb) {
    const std::size_t w = std::min(nb, n - k0);
    const int prow_k = desc.owner_prow(k0);

    // Panel: per-column pivot allreduce (reduce + broadcast; successive
    // columns overlap the down-phase with the next column's up-phase, so
    // the effective serial cost is about one tree traversal) + expected
    // swap + pivot-row bcast. The maxloc payload is one element plus an
    // 8-byte index.
    const double t_maxloc = col_tree(elem + 8.0);
    const double t_swap =
        offrow_frac *
        (network.transfer_time(link_col, elem * static_cast<double>(w)) +
         2.0 * ovh);
    const double t_prow = col_tree(elem / 2.0 * static_cast<double>(w));
    add_comm(static_cast<double>(w) * (t_maxloc + t_swap + t_prow),
             static_cast<double>(w) *
                 (2.0 * (grid.prows - 1) + 2.0 * offrow_frac +
                  (grid.prows - 1)),
             static_cast<double>(w) *
                 ((grid.prows - 1) * (elem + 8.0) +
                  offrow_frac * 2.0 * elem * w +
                  (grid.prows - 1) * elem / 2.0 * w));

    // Panel compute: slowest process row.
    double panel_max = 0.0;
    for (int p = 0; p < grid.prows; ++p) {
      double flops = 0.0;
      for (std::size_t j = k0; j < k0 + w; ++j) {
        const std::size_t seg = k0 + w - j;
        flops += static_cast<double>(rows_geq(desc, p, j + 1)) *
                     (2.0 * static_cast<double>(seg) - 1.0) +
                 static_cast<double>(rows_geq(desc, p, j));
      }
      panel_max = std::max(panel_max, flops);
    }
    add_compute(solvers::kPanel, panel_max, f32);
    // Attribute panel flops to the owning process column's ranks.
    const int panel_q = desc.owner_pcol(k0);
    for (int p = 0; p < grid.prows; ++p) {
      double flops = 0.0;
      for (std::size_t j = k0; j < k0 + w; ++j) {
        const std::size_t seg = k0 + w - j;
        flops += static_cast<double>(rows_geq(desc, p, j + 1)) *
                     (2.0 * static_cast<double>(seg) - 1.0) +
                 static_cast<double>(rows_geq(desc, p, j));
      }
      charge_kernel(per_rank[static_cast<std::size_t>(
                        grid.rank_of(p, panel_q))],
                    machine, sharers, solvers::kPanel, flops, f32);
    }

    // Pivot indices along the row (8-byte indices, precision-independent) +
    // trailing swaps in every process column.
    add_comm(row_tree(8.0 * static_cast<double>(w)),
             static_cast<double>(grid.pcols - 1),
             static_cast<double>(grid.pcols - 1) * 8.0 *
                 static_cast<double>(w));
    std::size_t max_lcols = 0;
    for (int q = 0; q < grid.pcols; ++q) {
      max_lcols = std::max(max_lcols, desc.local_cols(q));
    }
    add_comm(static_cast<double>(w) * offrow_frac *
                 (network.transfer_time(
                      link_col, elem * static_cast<double>(max_lcols)) +
                  2.0 * ovh),
             static_cast<double>(w) * offrow_frac * 2.0 *
                 static_cast<double>(grid.pcols),
             static_cast<double>(w) * offrow_frac * 2.0 *
                 static_cast<double>(grid.pcols) * elem *
                 static_cast<double>(max_lcols) / 2.0);

    // L panel slab along process rows.
    std::size_t slab_max = 0;
    for (int p = 0; p < grid.prows; ++p) {
      slab_max = std::max(slab_max, rows_geq(desc, p, k0));
    }
    const double slab_bytes =
        elem * static_cast<double>(slab_max) * static_cast<double>(w);
    // Payload ingestion: receivers read the slab out of shared memory once
    // (see the matching note in ime_model.cpp).
    add_comm(row_tree(slab_bytes) + slab_bytes / bw_share,
             static_cast<double>(grid.pcols - 1) * grid.prows,
             static_cast<double>(grid.pcols - 1) * grid.prows * slab_bytes);

    if (k0 + w >= n) break;

    // U12 triangular solve in the pivot process row, then down columns.
    std::size_t trail_max = 0;
    for (int q = 0; q < grid.pcols; ++q) {
      trail_max = std::max(trail_max, cols_geq(desc, q, k0 + w));
    }
    add_compute(solvers::kTrsm,
                static_cast<double>(w) * static_cast<double>(w) *
                    static_cast<double>(trail_max),
                f32);
    for (int q = 0; q < grid.pcols; ++q) {
      charge_kernel(
          per_rank[static_cast<std::size_t>(grid.rank_of(prow_k, q))],
          machine, sharers, solvers::kTrsm,
          static_cast<double>(w) * static_cast<double>(w) *
              static_cast<double>(cols_geq(desc, q, k0 + w)),
          f32);
    }
    const double u12_bytes =
        elem * static_cast<double>(w) * static_cast<double>(trail_max);
    add_comm(col_tree(u12_bytes) + u12_bytes / bw_share,  // + ingestion
             static_cast<double>(grid.prows - 1) * grid.pcols,
             static_cast<double>(grid.prows - 1) * grid.pcols * u12_bytes);

    // Trailing GEMM: slowest rank.
    double gemm_max = 0.0;
    for (int p = 0; p < grid.prows; ++p) {
      for (int q = 0; q < grid.pcols; ++q) {
        const double flops = 2.0 *
                             static_cast<double>(rows_geq(desc, p, k0 + w)) *
                             static_cast<double>(w) *
                             static_cast<double>(cols_geq(desc, q, k0 + w));
        gemm_max = std::max(gemm_max, flops);
        charge_kernel(per_rank[static_cast<std::size_t>(grid.rank_of(p, q))],
                      machine, sharers, solvers::kGemm, flops, f32);
      }
    }
    add_compute(solvers::kGemm, gemm_max, f32);
  }

  // ---- solve phase (forward + backward substitution) -------------------------
  // Shared between the direct solve and each refinement iteration's
  // correction solve (both sweep the factors at the working precision).
  const std::size_t nblocks = (n + nb - 1) / nb;
  const auto solve_sweeps = [&]() {
    for (std::size_t bk = 0; bk < 2 * nblocks; ++bk) {
      const std::size_t w = std::min(nb, n - (bk % nblocks) * nb);
      // gemv on the pivot process row (about half the local columns involved
      // on average over the sweep).
      std::size_t max_lcols = 0;
      for (int q = 0; q < grid.pcols; ++q) {
        max_lcols = std::max(max_lcols, desc.local_cols(q));
      }
      add_compute(solvers::kSubstitution,
                  2.0 * static_cast<double>(w) *
                      static_cast<double>(max_lcols) / 2.0,
                  f32);
      add_comm(row_tree(elem * static_cast<double>(w)),
               static_cast<double>(grid.pcols - 1),
               static_cast<double>(grid.pcols - 1) * elem *
                   static_cast<double>(w));
      add_compute(solvers::kSubstitution,
                  static_cast<double>(w) * static_cast<double>(w), f32);
      add_comm(tree_time(layout, network, world_members,
                         elem * static_cast<double>(w)),
               static_cast<double>(ranks - 1),
               static_cast<double>(ranks - 1) * elem *
                   static_cast<double>(w));
    }
    // Attribute substitution flops evenly across the pivot rows' ranks.
    for (int r = 0; r < ranks; ++r) {
      charge_kernel(per_rank[static_cast<std::size_t>(r)], machine, sharers,
                    solvers::kSubstitution,
                    2.0 * static_cast<double>(n) * static_cast<double>(n) /
                        static_cast<double>(ranks),
                    f32);
    }
  };
  solve_sweeps();

  // ---- refinement sweeps (mixed only) ----------------------------------------
  if (mixed) {
    const int iters = refinement_iters(n);
    const double nd = static_cast<double>(n);
    for (int it = 0; it < iters; ++it) {
      // fp64 residual r = b - A x: distributed GEMV over the block-cyclic
      // operand; critical path is the heaviest rank's local tile.
      double gemv_max = 0.0;
      for (int p = 0; p < grid.prows; ++p) {
        for (int q = 0; q < grid.pcols; ++q) {
          const double flops = 2.0 *
                               static_cast<double>(desc.local_rows(p)) *
                               static_cast<double>(desc.local_cols(q));
          gemv_max = std::max(gemv_max, flops);
          charge_kernel(
              per_rank[static_cast<std::size_t>(grid.rank_of(p, q))], machine,
              sharers, solvers::kGemv, flops);
        }
      }
      add_compute(solvers::kGemv, gemv_max);
      // Residual-norm allreduce (reduce + bcast of one fp64 scalar).
      add_comm(2.0 * tree_time(layout, network, world_members, 8.0),
               2.0 * static_cast<double>(ranks - 1),
               2.0 * static_cast<double>(ranks - 1) * 8.0);
      // fp32 correction solve reusing the factors: same sweeps as the
      // direct solve.
      solve_sweeps();
      // fp64 solution refresh: bcast of the corrected x.
      add_comm(tree_time(layout, network, world_members, 8.0 * nd),
               static_cast<double>(ranks - 1),
               static_cast<double>(ranks - 1) * 8.0 * nd);
      // axpy x += d (fp64, n flops spread over ranks — noise, but keep the
      // ledger honest).
      for (int r = 0; r < ranks; ++r) {
        charge_kernel(per_rank[static_cast<std::size_t>(r)], machine, sharers,
                      solvers::kSubstitution, 2.0 * nd / ranks);
      }
      add_compute(solvers::kSubstitution, 2.0 * nd / ranks);
    }
  }

  // Message handling energy, spread evenly.
  for (int r = 0; r < ranks; ++r) {
    charge_messages(per_rank[static_cast<std::size_t>(r)], network,
                    msg_events / ranks, msg_bytes / ranks);
  }

  prediction.duration_s = T;
  prediction.comm_s = comm_total;
  prediction.compute_s = T - comm_total;
  fill_energy(prediction, machine, layout, per_rank, T);
  return prediction;
}

}  // namespace

Prediction predict_scalapack(const hw::MachineSpec& machine,
                             const hw::Placement& placement, std::size_t n,
                             std::size_t nb) {
  return scalapack_model(machine, placement, n, nb, /*mixed=*/false);
}

Prediction predict_scalapack_mixed(const hw::MachineSpec& machine,
                                   const hw::Placement& placement,
                                   std::size_t n, std::size_t nb) {
  return scalapack_model(machine, placement, n, nb, /*mixed=*/true);
}

int refinement_iters(std::size_t n) {
  PLIN_CHECK_MSG(n > 0, "perfsim: empty system");
  // Backward-error target n*eps64 with per-sweep contraction
  // rho = eps32 * sqrt(n) (the growth-adjusted single-precision residual
  // floor the executed mixed solver exhibits). k = ceil(log target /
  // log rho), clamped to the [2, 30] band the numeric tier enforces.
  const double nd = static_cast<double>(n);
  const double target = nd * 1.1e-16;
  const double rho = 6.0e-8 * std::sqrt(nd);
  if (rho >= 1.0) return 30;  // fp32 floor too coarse: cap at the max
  const double k = std::ceil(std::log(target) / std::log(rho));
  return std::clamp(static_cast<int>(k), 2, 30);
}

}  // namespace plin::perfsim
