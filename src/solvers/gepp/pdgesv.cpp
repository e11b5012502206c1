#include "solvers/gepp/pdgesv.hpp"

#include <algorithm>

#include "linalg/generate.hpp"
#include "support/error.hpp"

namespace plin::solvers {
namespace {

void check_options(const PdgesvOptions& options) {
  PLIN_CHECK_MSG(options.n > 0, "pdgesv: system dimension must be positive");
  PLIN_CHECK_MSG(options.nb > 0, "pdgesv: block size must be positive");
}

constexpr const char* kSingular = "pdgesv: matrix is singular";

}  // namespace

PdluFactorization pdgetrf(xmpi::Comm& comm, const PdgesvOptions& options) {
  check_options(options);
  pdlu::Grid grid = pdlu::make_grid(comm, options.n, options.nb);
  pdlu::Factors<double> factors =
      pdlu::generate<double>(grid, options.seed, 1.0);
  pdlu::Workspace<double> workspace;
  for (std::size_t k0 = 0; k0 < options.n; k0 += options.nb) {
    PLIN_CHECK_MSG(pdlu::factor_one_panel(grid, factors, k0, workspace),
                   kSingular);
  }
  return PdluFactorization(std::move(grid), std::move(factors));
}

PdgetrfFtResult pdgetrf_checkpointed(xmpi::Comm& comm,
                                     const PdgetrfFtOptions& options) {
  check_options(options.base);
  PLIN_CHECK_MSG(options.checkpoint_every_panels > 0,
                 "pdgetrf_checkpointed: checkpoint interval must be > 0");
  const std::size_t n = options.base.n;
  const std::size_t nb = options.base.nb;
  pdlu::Grid grid = pdlu::make_grid(comm, n, nb);
  pdlu::Factors<double> factors =
      pdlu::generate<double>(grid, options.base.seed, 1.0);
  pdlu::Workspace<double> workspace;

  // Coordinated in-memory checkpoint: this rank's tiles + the pivot array.
  pdlu::Factors<double> ckpt = factors;
  std::size_t ckpt_panel = 0;
  linalg::Matrix partner_snapshot;  // partner's tiles (partner_copy mode)
  constexpr int kTagCheckpoint = 21;

  int checkpoints_taken = 0;
  int restarts = 0;
  std::size_t panels_recomputed = 0;
  const std::size_t nblocks = (n + nb - 1) / nb;
  bool fault_pending = options.inject_fault_at_panel.has_value();
  std::size_t next_checkpoint = 0;
  const double state_bytes = static_cast<double>(factors.local.size_bytes());

  for (std::size_t panel = 0; panel < nblocks;) {
    if (panel == next_checkpoint) {
      // Snapshot: one read + one write of the full local state.
      comm.prof_phase_begin("gepp:checkpoint");
      ckpt = factors;
      ckpt_panel = panel;
      comm.memory_touch(2.0 * state_bytes);
      if (options.partner_copy && comm.size() > 1) {
        // Exchange snapshots with the XOR partner (diskless partner
        // checkpointing): the snapshot actually crosses the network.
        // A trailing odd rank has no partner and keeps its local copy only.
        const int partner = comm.rank() ^ 1;
        if (partner < comm.size()) {
          // The partner sits in a different grid column/row, so its tile
          // block has its own dimensions.
          const std::size_t partner_rows = std::max<std::size_t>(
              grid.desc.local_rows(grid.desc.grid.row_of(partner)), 1);
          const std::size_t partner_cols = std::max<std::size_t>(
              grid.desc.local_cols(grid.desc.grid.col_of(partner)), 1);
          if (partner_snapshot.rows() != partner_rows ||
              partner_snapshot.cols() != partner_cols) {
            partner_snapshot = linalg::Matrix(partner_rows, partner_cols);
          }
          comm.sendrecv(std::span<const double>(ckpt.local.flat()),
                        std::span<double>(partner_snapshot.flat()), partner,
                        kTagCheckpoint);
        }
      }
      ++checkpoints_taken;
      next_checkpoint += options.checkpoint_every_panels;
      comm.prof_phase_end();
    }
    if (fault_pending && panel == *options.inject_fault_at_panel) {
      // The in-flight state is lost; every rank rolls back to the last
      // coordinated checkpoint and recomputes the panels since.
      fault_pending = false;
      comm.prof_phase_begin("gepp:rollback");
      factors = ckpt;
      comm.memory_touch(2.0 * state_bytes);
      comm.prof_phase_end();
      ++restarts;
      panels_recomputed += panel - ckpt_panel;
      panel = ckpt_panel;
      continue;
    }
    PLIN_CHECK_MSG(pdlu::factor_one_panel(grid, factors, panel * nb, workspace),
                   kSingular);
    ++panel;
  }

  return PdgetrfFtResult{
      PdluFactorization(std::move(grid), std::move(factors)),
      checkpoints_taken, restarts, panels_recomputed};
}

std::vector<double> PdluFactorization::solve(std::vector<double> rhs) const {
  return pdlu::solve(grid_, factors_, std::move(rhs));
}

PdgesvResult solve_pdgesv(xmpi::Comm& comm, const PdgesvOptions& options) {
  const PdluFactorization factorization = pdgetrf(comm, options);

  std::vector<double> rhs = linalg::generate_rhs(options.seed, options.n);
  comm.memory_touch(static_cast<double>(options.n * sizeof(double)));

  PdgesvResult result;
  result.grid = factorization.grid();
  result.pivots = factorization.pivots();
  result.x = factorization.solve(std::move(rhs));
  return result;
}

}  // namespace plin::solvers
