#include "solvers/gepp/mixed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "linalg/generate.hpp"
#include "solvers/gepp/pdlu.hpp"
#include "support/error.hpp"

namespace plin::solvers {
namespace {

using pdlu::cost_of;

/// The system scaled by entry_scale, factored in precision T; nullopt on a
/// dead pivot (every rank sees the same verdict at the same panel).
template <typename T>
std::optional<pdlu::Factors<T>> factorize(pdlu::Grid& grid,
                                          const GeppMixedOptions& options) {
  pdlu::Factors<T> f =
      pdlu::generate<T>(grid, options.seed, options.entry_scale);
  pdlu::Workspace<T> ws;
  for (std::size_t k0 = 0; k0 < options.n; k0 += options.nb) {
    if (!pdlu::factor_one_panel(grid, f, k0, ws)) return std::nullopt;
  }
  return f;
}

/// The contiguous row block [r0, r1) this rank owns in the O(n^2) fp64
/// sweeps (independent of the block-cyclic factor layout — the sweeps
/// regenerate their matrix rows, so any balanced partition works and the
/// contiguous one makes the allgather trivial).
struct RowChunk {
  std::size_t chunk;
  std::size_t r0;
  std::size_t r1;
};

RowChunk my_rows(const xmpi::Comm& comm, std::size_t n) {
  const std::size_t p = static_cast<std::size_t>(comm.size());
  const std::size_t chunk = (n + p - 1) / p;
  const std::size_t r0 =
      std::min(n, static_cast<std::size_t>(comm.rank()) * chunk);
  return RowChunk{chunk, r0, std::min(n, r0 + chunk)};
}

/// r := b - A x in fp64, replicated on every rank. Each rank regenerates
/// its row block of A row by row and the chunks are allgathered.
std::vector<double> residual(xmpi::Comm& comm, const GeppMixedOptions& options,
                             const std::vector<double>& x,
                             const std::vector<double>& b) {
  const std::size_t n = options.n;
  comm.prof_phase_begin("refine:residual");
  const RowChunk rows = my_rows(comm, n);
  std::vector<double> r_local(rows.chunk, 0.0);
  std::vector<double> a_row(n);
  for (std::size_t i = rows.r0; i < rows.r1; ++i) {
    linalg::system_row(options.seed, n, i, 0, a_row);
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      sum += options.entry_scale * a_row[j] * x[j];
    }
    r_local[i - rows.r0] = b[i] - sum;
  }
  comm.compute(cost_of<double>(
      kGemv, 2.0 * static_cast<double>(n) *
                 static_cast<double>(rows.r1 - rows.r0)));
  std::vector<double> r_all(rows.chunk *
                            static_cast<std::size_t>(comm.size()));
  comm.allgather(std::span<const double>(r_local), std::span<double>(r_all));
  r_all.resize(n);
  comm.prof_phase_end();
  return r_all;
}

/// ||A||_inf of the scaled generated system, replicated (local row sums +
/// a max-allreduce).
double matrix_norm(xmpi::Comm& comm, const GeppMixedOptions& options) {
  const std::size_t n = options.n;
  comm.prof_phase_begin("refine:norms");
  const RowChunk rows = my_rows(comm, n);
  double local_max = 0.0;
  std::vector<double> a_row(n);
  for (std::size_t i = rows.r0; i < rows.r1; ++i) {
    linalg::system_row(options.seed, n, i, 0, a_row);
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row_sum += std::fabs(options.entry_scale * a_row[j]);
    }
    local_max = std::max(local_max, row_sum);
  }
  comm.compute(cost_of<double>(
      kGemv, static_cast<double>(n) *
                 static_cast<double>(rows.r1 - rows.r0)));
  const double norm = comm.allreduce_value(local_max, xmpi::ReduceOp::kMax);
  comm.prof_phase_end();
  return norm;
}

double inf_norm(const std::vector<double>& v) {
  double m = 0.0;
  for (const double e : v) m = std::max(m, std::fabs(e));
  return m;
}

}  // namespace

GeppMixedResult solve_gepp_mixed(xmpi::Comm& comm,
                                 const GeppMixedOptions& options) {
  const std::size_t n = options.n;
  PLIN_CHECK_MSG(n > 0, "gepp_mixed: system dimension must be positive");
  PLIN_CHECK_MSG(options.nb > 0, "gepp_mixed: block size must be positive");
  PLIN_CHECK_MSG(options.max_iters > 0,
                 "gepp_mixed: max_iters must be positive");

  pdlu::Grid grid = pdlu::make_grid(comm, n, options.nb);

  GeppMixedResult result;
  result.grid = grid.desc.grid;

  std::vector<double> b = linalg::generate_rhs(options.seed, n);
  comm.memory_touch(static_cast<double>(n * sizeof(double)));

  const std::optional<pdlu::Factors<float>> f32 =
      factorize<float>(grid, options);

  bool converged = false;
  if (f32) {
    result.x = pdlu::solve(grid, *f32, b);

    // Backward-stable target: ||r|| <= ||A|| ||x|| n eps64. With the fp32
    // factors carrying ~7 digits, each sweep multiplies the error by
    // O(eps32 * cond(A)); well-conditioned systems land in 1-3 sweeps.
    const double anorm = matrix_norm(comm, options);
    const double eps = std::numeric_limits<double>::epsilon();
    const auto tolerance = [&](const std::vector<double>& x) {
      return anorm * inf_norm(x) * static_cast<double>(n) * eps;
    };

    std::vector<double> r = residual(comm, options, result.x, b);
    double rnorm = inf_norm(r);
    result.residual_norm = rnorm;
    converged = rnorm <= tolerance(result.x);

    // Sweeps continue past the tolerance while each one still halves the
    // residual: the first converged iterate can sit just under the
    // n*eps64 target while one more O(n^2) sweep reaches the fp64
    // direct-solve floor. Each extra sweep is noise next to the O(n^3)
    // factorization, and the exit point stays a pure function of the
    // replicated norms, so every rank (and every host configuration)
    // leaves the loop at the same iterate.
    for (int iter = 1; iter <= options.max_iters; ++iter) {
      std::vector<double> d = pdlu::solve(grid, *f32, std::move(r));
      comm.prof_phase_begin("refine:correct");
      for (std::size_t i = 0; i < n; ++i) result.x[i] += d[i];
      comm.compute(cost_of<double>(kGemv, static_cast<double>(n)));
      comm.prof_phase_end();

      r = residual(comm, options, result.x, b);
      const double new_norm = inf_norm(r);
      result.iters = iter;

      if (converged && new_norm > rnorm) {
        // The polish sweep overshot the fp32 floor; undo it and keep the
        // strictly better converged iterate.
        comm.prof_phase_begin("refine:correct");
        for (std::size_t i = 0; i < n; ++i) result.x[i] -= d[i];
        comm.compute(cost_of<double>(kGemv, static_cast<double>(n)));
        comm.prof_phase_end();
        break;
      }
      result.residual_norm = new_norm;
      if (new_norm <= tolerance(result.x)) converged = true;
      // Stagnation: short of the target the residual must keep halving or
      // fp32 has hit its floor — fall back. Past the target a sweep must
      // still pay for itself with an order of magnitude (near the fp64
      // floor sweeps only jitter by ~2x, and polishing those would erode
      // the time-to-solution win). The inverted comparison also trips on
      // NaN (an overflowed fp32 factorization), which never improves.
      const bool improving = new_norm < (converged ? 0.1 : 0.5) * rnorm;
      rnorm = new_norm;
      if (!improving) break;
    }
  }

  if (!converged) {
    // Every rank reaches this branch together: the dead-pivot verdict and
    // the refinement norms are replicated values. The fallback is a plain
    // pdgesv factorization of the scaled system.
    result.fell_back = true;
    const std::optional<pdlu::Factors<double>> f64 =
        factorize<double>(grid, options);
    PLIN_CHECK_MSG(f64.has_value(), "gepp_mixed: matrix is singular");
    result.x = pdlu::solve(grid, *f64, b);
    result.residual_norm = inf_norm(residual(comm, options, result.x, b));
  }
  return result;
}

}  // namespace plin::solvers
