// Simulator — the paper-scale analytic replay ("replay tier", DESIGN.md §2).
//
// For each (algorithm, matrix size, placement) configuration it walks the
// same per-level / per-panel schedule the executing solvers follow,
// advancing a critical-path clock with the shared NetworkModel and pricing
// per-rank activity with the shared KernelProfiles and PowerModel. At
// container scale its predictions are pinned against the actually-executed
// solvers (tests/model_validation_test.cpp, bench_model_validation); at
// Marconi scale (n up to 34560, 1296 ranks) it regenerates the paper's
// figures in milliseconds instead of node-hours.
#pragma once

#include "hwmodel/layout.hpp"
#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/prediction.hpp"

namespace plin::perfsim {

class Simulator {
 public:
  explicit Simulator(hw::MachineSpec machine) : machine_(std::move(machine)) {}

  /// Predicts duration, energy and power for one configuration.
  Prediction predict(const Workload& workload,
                     const hw::Placement& placement) const;

  const hw::MachineSpec& machine() const { return machine_; }

 private:
  hw::MachineSpec machine_;
};

/// Individual models (exposed for targeted tests).
Prediction predict_ime(const hw::MachineSpec& machine,
                       const hw::Placement& placement, std::size_t n);
Prediction predict_scalapack(const hw::MachineSpec& machine,
                             const hw::Placement& placement, std::size_t n,
                             std::size_t nb);

/// Mixed-precision GEPP replay: the full factorization + solve pipeline at
/// fp32 cost (half the bytes per element, twice the per-core peak), plus
/// refinement_iters(n) fp64 refinement sweeps (docs/mixed_precision.md).
Prediction predict_scalapack_mixed(const hw::MachineSpec& machine,
                                   const hw::Placement& placement,
                                   std::size_t n, std::size_t nb);

/// The refinement-iteration model: fp64 sweeps until the backward error
/// reaches the n*eps64 bound, assuming the contraction factor
/// rho = eps32 * sqrt(n) per sweep that the executed solver exhibits
/// (solvers/gepp/mixed.cpp converges in 3 sweeps across the numeric-tier
/// range; this model reproduces that and stays at 3 through Marconi scale).
int refinement_iters(std::size_t n);

/// Distributed-CG replay of the default fused/overlapped path: per
/// iteration max(halo exchange, interior SpMV) + boundary SpMV (priced
/// with the sparse DRAM-traffic term from hwmodel/sparse.hpp and the
/// csr_boundary_rows split), one fused small-vector allreduce carrying the
/// iteration's dot products (3 scalars, 5 under Jacobi), and the axpy
/// updates — iterated cg_model_iters times, then the final solution
/// allgather (docs/sparse.md).
Prediction predict_cg(const hw::MachineSpec& machine,
                      const hw::Placement& placement, std::size_t n,
                      sparse::SparseKind kind, double tolerance,
                      solvers::CgPrecond precond = solvers::CgPrecond::kNone);

/// The analytic iteration-count model: the classic CG error bound
/// ||e_k|| <= 2 ((sqrt(k)-1)/(sqrt(k)+1))^k ||e_0|| evaluated at the
/// family's Gershgorin condition estimate kappa = 2 S + 1 (diagonal =
/// row sum S + 1 puts the spectrum in [1, 2 S + 1]). An upper bound, so it
/// tracks — without matching bit-for-bit — the executed iteration counts.
int cg_model_iters(sparse::SparseKind kind, double tolerance);

}  // namespace plin::perfsim
