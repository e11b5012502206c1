// Prediction — what the analytic replay reports for one (algorithm,
// placement, matrix size) configuration: the same quantities the paper's
// charts plot.
#pragma once

#include <cstddef>

#include "solvers/cg/precond.hpp"
#include "sparse/generate.hpp"

namespace plin::perfsim {

enum class Algorithm { kIme, kScalapack, kCg };

const char* to_string(Algorithm algorithm);

/// Job-level arithmetic policy, shared by the campaign layers. kFp64 is the
/// paper's baseline; kMixed is the fp32-factorize + fp64-refine GEPP
/// variant (docs/mixed_precision.md) — numeric tier, scalapack only.
enum class Precision { kFp64, kMixed };

const char* to_string(Precision precision);

struct Workload {
  Algorithm algorithm = Algorithm::kScalapack;
  std::size_t n = 0;
  std::size_t nb = 64;      // ScaLAPACK block size (ignored by others)
  /// kMixed replays the fp32-factorize + fp64-refine GEPP variant
  /// (scalapack only — the refinement-iteration model in
  /// scalapack_model.cpp); every other algorithm requires kFp64.
  Precision precision = Precision::kFp64;
  /// CG only: which sparse family the job solves, and the relative-residual
  /// target that (with the family's spectrum) fixes the iteration count.
  sparse::SparseKind matrix = sparse::SparseKind::kStencil5;
  double tolerance = 1e-11;
  /// CG only: the campaign's preconditioner axis (none | jacobi).
  solvers::CgPrecond precond = solvers::CgPrecond::kNone;
};

struct Prediction {
  double duration_s = 0.0;

  // Energy split by RAPL domain, summed over all nodes of the placement;
  // index = socket position within a node (package 0 / package 1).
  double pkg_j[2] = {0.0, 0.0};
  double dram_j[2] = {0.0, 0.0};

  // Critical-path decomposition (diagnostics and the ablation bench).
  double compute_s = 0.0;
  double comm_s = 0.0;

  double total_pkg_j() const { return pkg_j[0] + pkg_j[1]; }
  double total_dram_j() const { return dram_j[0] + dram_j[1]; }
  double total_j() const { return total_pkg_j() + total_dram_j(); }
  double avg_power_w() const {
    return duration_s > 0.0 ? total_j() / duration_s : 0.0;
  }
  double dram_power_w() const {
    return duration_s > 0.0 ? total_dram_j() / duration_s : 0.0;
  }
};

}  // namespace plin::perfsim
