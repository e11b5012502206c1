#include "solvers/cg/cg.hpp"

#include <algorithm>
#include <cmath>

#include "hwmodel/sparse.hpp"
#include "linalg/generate.hpp"
#include "solvers/efficiency.hpp"
#include "sparse/csr.hpp"
#include "support/error.hpp"

namespace plin::solvers {
namespace {

// Point-to-point tags of the CG protocol (halo negotiation + exchange).
constexpr int kTagHaloCount = 901;
constexpr int kTagHaloCols = 902;
constexpr int kTagHaloData = 903;

double dot_span(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

/// 1 / diag(A) for the owned rows; `col_of(li)` maps a local row to the
/// column index its diagonal carries (global before the halo remap, local
/// after). The generated diagonal is the absolute off-diagonal row sum
/// plus one, so it is always >= 1.
template <typename ColOf>
std::vector<double> inverse_diagonal(const sparse::CsrMatrix& a,
                                     ColOf&& col_of) {
  std::vector<double> inv(a.rows, 0.0);
  for (std::size_t r = 0; r < a.rows; ++r) {
    const std::size_t want = col_of(r);
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      if (a.col_idx[k] == want) {
        PLIN_CHECK_MSG(a.values[k] > 0.0,
                       "cg: jacobi needs a positive diagonal");
        inv[r] = 1.0 / a.values[k];
        break;
      }
    }
    PLIN_CHECK_MSG(inv[r] > 0.0, "cg: jacobi needs a full diagonal");
  }
  return inv;
}

}  // namespace

CgResult solve_cg(const sparse::CsrMatrix& a, const std::vector<double>& b,
                  double tolerance, int max_iterations, CgPrecond precond) {
  PLIN_CHECK_MSG(a.rows == a.cols, "cg: A must be square");
  const std::size_t n = a.rows;
  PLIN_CHECK_MSG(b.size() == n, "cg: rhs size mismatch");
  PLIN_CHECK_MSG(tolerance > 0.0 && max_iterations > 0,
                 "cg: bad iteration controls");

  CgResult result;
  result.nnz = a.nnz();
  result.x.assign(n, 0.0);
  std::vector<double> r = b;  // r = b - A*0
  std::vector<double> q(n, 0.0);

  const double b_norm = std::sqrt(dot_span(b, b));
  if (b_norm == 0.0) {
    result.converged = true;
    return result;
  }

  if (precond == CgPrecond::kNone) {
    std::vector<double> p = r;
    double rr = dot_span(r, r);
    for (int iter = 1; iter <= max_iterations; ++iter) {
      sparse::spmv(a, p, q);
      const double pq = dot_span(p, q);
      PLIN_CHECK_MSG(pq > 0.0, "cg: matrix is not positive definite");
      const double alpha = rr / pq;
      for (std::size_t i = 0; i < n; ++i) {
        result.x[i] += alpha * p[i];
        r[i] -= alpha * q[i];
      }
      const double rr_next = dot_span(r, r);
      result.iterations = iter;
      result.relative_residual = std::sqrt(rr_next) / b_norm;
      if (result.relative_residual <= tolerance) {
        result.converged = true;
        break;
      }
      const double beta = rr_next / rr;
      rr = rr_next;
      for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    }
    return result;
  }

  // Jacobi PCG: M = diag(A), z = M^{-1} r, direction updates from z.
  const std::vector<double> inv_diag =
      inverse_diagonal(a, [](std::size_t row) { return row; });
  std::vector<double> z(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  std::vector<double> p = z;
  double rz = dot_span(r, z);
  for (int iter = 1; iter <= max_iterations; ++iter) {
    sparse::spmv(a, p, q);
    const double pq = dot_span(p, q);
    PLIN_CHECK_MSG(pq > 0.0, "cg: matrix is not positive definite");
    const double alpha = rz / pq;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    const double rr = dot_span(r, r);
    result.iterations = iter;
    result.relative_residual = std::sqrt(rr) / b_norm;
    if (result.relative_residual <= tolerance) {
      result.converged = true;
      break;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot_span(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

CgResult solve_pcg(xmpi::Comm& comm, const CgOptions& options) {
  const std::size_t n = options.n;
  PLIN_CHECK_MSG(n > 0, "cg: system dimension must be positive");
  PLIN_CHECK_MSG(options.tolerance > 0.0 && options.max_iterations > 0,
                 "cg: bad iteration controls");
  const bool jacobi = options.precond == CgPrecond::kJacobi;
  const int ranks = comm.size();
  const int rank = comm.rank();

  // Contiguous row blocks, padded to a uniform chunk so the solution can be
  // gathered with a fixed-size gather.
  const std::size_t chunk =
      (n + static_cast<std::size_t>(ranks) - 1) / ranks;
  const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(rank));
  const std::size_t hi = std::min(n, lo + chunk);
  const std::size_t local_rows = hi - lo;

  // -- local slice of the system -------------------------------------------
  comm.prof_phase_begin("cg:generate");
  sparse::CsrMatrix local =
      sparse::generate_rows(options.kind, options.seed, n, lo, hi);
  std::vector<double> local_b(local_rows, 0.0);
  for (std::size_t li = 0; li < local_rows; ++li) {
    local_b[li] = linalg::rhs_entry(options.seed, n, lo + li);
  }
  std::vector<double> inv_diag;
  if (jacobi) {
    // Columns are still global here, so row li's diagonal sits at lo + li.
    inv_diag = inverse_diagonal(
        local, [lo](std::size_t row) { return lo + row; });
  }
  comm.memory_touch(local.size_bytes());
  comm.prof_phase_end();

  // -- halo negotiation -----------------------------------------------------
  // Ghost columns: every off-block column the local rows reference, sorted
  // ascending. owner(col) = col / chunk is monotone in col, so the sorted
  // ghost list is contiguous per owning rank — each peer's values land in
  // one slice of the ghost region.
  comm.prof_phase_begin("cg:halo-setup");
  std::vector<std::uint32_t> ghosts;
  for (const std::uint32_t col : local.col_idx) {
    if (col < lo || col >= hi) ghosts.push_back(col);
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());

  // Remap the local matrix to compact indexing: [owned rows | ghost slots].
  for (std::uint32_t& col : local.col_idx) {
    if (col >= lo && col < hi) {
      col = static_cast<std::uint32_t>(col - lo);
    } else {
      const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), col);
      col = static_cast<std::uint32_t>(
          local_rows + static_cast<std::size_t>(it - ghosts.begin()));
    }
  }
  local.cols = local_rows + ghosts.size();

  // Every generated family is structurally symmetric (sparse/generate.hpp):
  // if a local row references a column owned by rank s, the mirrored entry
  // makes a row of s reference a column of this rank. So the ranks this
  // rank needs ghosts from are exactly the ranks that need ghosts from it,
  // and one neighbour list carries both directions of the halo.
  struct Neighbour {
    int peer = 0;
    std::size_t offset = 0;  // slice of the ghost region this peer fills
    std::size_t count = 0;
    std::vector<std::size_t> rows;  // owned local indices this peer needs
  };
  std::vector<Neighbour> neighbours;
  {
    std::size_t at = 0;
    while (at < ghosts.size()) {
      const int owner = static_cast<int>(ghosts[at] / chunk);
      std::size_t end = at;
      while (end < ghosts.size() &&
             static_cast<int>(ghosts[end] / chunk) == owner) {
        ++end;
      }
      neighbours.push_back(Neighbour{owner, at, end - at, {}});
      at = end;
    }
  }
  // Each rank sends every neighbour its request count and column list, then
  // takes the neighbour's requests: O(neighbours) messages per rank. Sends
  // are buffered, so the symmetric exchange cannot deadlock; an asymmetric
  // pattern would leave a receive unmatched, which the runtime reports as a
  // deadlock.
  for (const Neighbour& nb : neighbours) {
    comm.send_value(static_cast<std::uint64_t>(nb.count), nb.peer,
                    kTagHaloCount);
    comm.send(std::span<const std::uint32_t>(ghosts.data() + nb.offset,
                                             nb.count),
              nb.peer, kTagHaloCols);
  }
  for (Neighbour& nb : neighbours) {
    const auto count = comm.recv_value<std::uint64_t>(nb.peer, kTagHaloCount);
    std::vector<std::uint32_t> wanted(count, 0);
    comm.recv(std::span<std::uint32_t>(wanted), nb.peer, kTagHaloCols);
    nb.rows.reserve(count);
    for (const std::uint32_t col : wanted) {
      PLIN_CHECK_MSG(col >= lo && col < hi, "cg: halo request out of block");
      nb.rows.push_back(col - lo);
    }
  }

  // Interior/boundary row split: a row is boundary iff it gathers from the
  // ghost region (remapped columns >= local_rows). Computing a row in the
  // interior pass or the boundary pass yields the same bits (spmv_rows
  // keeps the per-row accumulation of the full spmv), so the split moves
  // timing only.
  std::vector<std::uint32_t> interior_rows;
  std::vector<std::uint32_t> boundary_rows;
  std::size_t nnz_boundary = 0;
  for (std::size_t li = 0; li < local_rows; ++li) {
    bool boundary = false;
    for (std::size_t k = local.row_ptr[li]; k < local.row_ptr[li + 1]; ++k) {
      if (local.col_idx[k] >= local_rows) {
        boundary = true;
        break;
      }
    }
    if (boundary) {
      boundary_rows.push_back(static_cast<std::uint32_t>(li));
      nnz_boundary += local.row_ptr[li + 1] - local.row_ptr[li];
    } else {
      interior_rows.push_back(static_cast<std::uint32_t>(li));
    }
  }
  comm.prof_phase_end();

  // -- CG iteration ---------------------------------------------------------
  const double flops_dot = 2.0 * static_cast<double>(local_rows);
  const auto global_dot = [&](std::span<const double> a,
                              std::span<const double> b) {
    comm.prof_phase_begin("cg:dot");
    const double partial = dot_span(a, b);
    comm.compute(xmpi::ComputeCost{flops_dot, flops_dot * kDot.bytes_per_flop,
                                   kDot.efficiency});
    const double sum = comm.allreduce_value(partial, xmpi::ReduceOp::kSum);
    comm.prof_phase_end();
    return sum;
  };

  CgResult result;
  {
    const double local_nnz = static_cast<double>(local.nnz());
    result.nnz = static_cast<std::size_t>(
        comm.allreduce_value(local_nnz, xmpi::ReduceOp::kSum));
  }
  std::vector<double> x(local_rows, 0.0);
  std::vector<double> r = local_b;
  std::vector<double> q(local_rows, 0.0);
  std::vector<double> z;  // jacobi only: z = M^{-1} r
  if (jacobi) z.assign(local_rows, 0.0);
  // p carries the ghost region the remapped SpMV gathers from.
  std::vector<double> p_ext(local_rows + ghosts.size(), 0.0);
  std::vector<double> halo_out;
  std::vector<xmpi::Request> halo_requests;

  const auto halo_post = [&] {
    if (neighbours.empty()) return;
    comm.prof_phase_begin("cg:halo-post");
    for (const Neighbour& nb : neighbours) {
      halo_requests.push_back(comm.irecv(
          std::span<double>(p_ext.data() + local_rows + nb.offset, nb.count),
          nb.peer, kTagHaloData));
    }
    for (const Neighbour& nb : neighbours) {
      halo_out.resize(nb.rows.size());
      for (std::size_t i = 0; i < nb.rows.size(); ++i) {
        halo_out[i] = p_ext[nb.rows[i]];
      }
      // isend is buffered (the payload is on the wire before the call
      // returns), so reusing halo_out across peers is safe.
      comm.isend_halo(std::span<const double>(halo_out), nb.peer,
                      kTagHaloData);
    }
    comm.prof_phase_end();
  };

  const auto halo_wait = [&] {
    if (halo_requests.empty()) return;
    comm.prof_phase_begin("cg:halo-wait");
    xmpi::wait_all(std::span<xmpi::Request>(halo_requests));
    halo_requests.clear();
    comm.prof_phase_end();
  };

  const double nnz_total = static_cast<double>(local.nnz());
  const double nnz_interior_d =
      nnz_total - static_cast<double>(nnz_boundary);
  // csr_spmv_bytes is linear in (nnz, rows), so the interior and boundary
  // charges sum exactly to one whole-block SpMV charge.
  const double bytes_interior = hw::csr_spmv_bytes(
      nnz_interior_d, static_cast<double>(interior_rows.size()));
  const double bytes_boundary = hw::csr_spmv_bytes(
      static_cast<double>(nnz_boundary),
      static_cast<double>(boundary_rows.size()));

  /// q = A p for one iteration: the interior rows run while the halo is in
  /// flight, the boundary rows once it has landed.
  const auto apply_operator = [&] {
    halo_post();
    comm.prof_phase_begin("cg:interior");
    sparse::spmv_rows(local, p_ext, q,
                      std::span<const std::uint32_t>(interior_rows));
    comm.compute(xmpi::ComputeCost{2.0 * nnz_interior_d, bytes_interior,
                                   kSpmv.efficiency});
    comm.prof_phase_end();
    halo_wait();
    comm.prof_phase_begin("cg:boundary");
    sparse::spmv_rows(local, p_ext, q,
                      std::span<const std::uint32_t>(boundary_rows));
    comm.compute(xmpi::ComputeCost{
        2.0 * static_cast<double>(nnz_boundary), bytes_boundary,
        kSpmv.efficiency});
    comm.prof_phase_end();
  };

  const auto apply_precond = [&] {
    comm.prof_phase_begin("cg:precond");
    for (std::size_t i = 0; i < local_rows; ++i) z[i] = inv_diag[i] * r[i];
    const double rows_d = static_cast<double>(local_rows);
    comm.compute(xmpi::ComputeCost{rows_d, 24.0 * rows_d, kAxpy.efficiency});
    comm.prof_phase_end();
  };

  const auto charge_axpy = [&](double flops) {
    comm.compute(xmpi::ComputeCost{flops, flops * kAxpy.bytes_per_flop,
                                   kAxpy.efficiency});
  };

  const double bb = global_dot(local_b, local_b);
  const double b_norm = std::sqrt(bb);
  if (b_norm == 0.0) {
    result.converged = true;
    if (rank == 0) result.x.assign(n, 0.0);
    return result;
  }

  // Residual-replacement guard for the recurrences. The recurrence
  // ||r'||^2 = ||r||^2 - 2 a (r.q) + a^2 (q.q) is exact for the *exact*
  // update, but the stored r drifts from it by rounding, and the drift
  // freezes into a constant absolute offset of order eps * ||b||^2 (the
  // scale of the early iterations' terms). Below this floor the recurrence
  // value is noise — feeding it into beta makes the direction recurrence
  // unstable (beta > 1 runaway), the classic attainable-accuracy limit of
  // single-reduction CG. The guard re-measures ||r||^2 directly whenever
  // the recurrence value dips under a generous multiple of the floor; the
  // inputs are replicated bitwise, so every rank takes the same branch and
  // determinism is preserved. 1e-12 leaves ~3 decades of margin over the
  // observed eps-scale offset while keeping the one-round fast path for
  // the whole trajectory above a relative residual of 1e-6.
  const double rec_floor = 1e-12 * bb;

  double rr = bb;   // ||r||^2 (r == b at x = 0)
  double rz = 0.0;  // jacobi: r . M^{-1} r
  if (jacobi) {
    apply_precond();
    std::copy(z.begin(), z.end(), p_ext.begin());
    rz = global_dot(r, z);
  } else {
    std::copy(r.begin(), r.end(), p_ext.begin());
  }
  // The r.M^{-1}r recurrence carries the same frozen offset at its own
  // initial scale.
  const double rz_floor = jacobi ? 1e-12 * rz : 0.0;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    apply_operator();

    // Fused-round scalars: [p.q, r.q, q.q] (+ [z.q, q.M^{-1}q] under
    // jacobi). One accumulation pass brackets each sum exactly like its
    // standalone dot_span, and the small-vector allreduce combines
    // element-wise in rank order — each element is bitwise what a scalar
    // round would have produced.
    comm.prof_phase_begin("cg:dot");
    const std::size_t terms = jacobi ? 5 : 3;
    double partial[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < local_rows; ++i) {
      partial[0] += p_ext[i] * q[i];
      partial[1] += r[i] * q[i];
      partial[2] += q[i] * q[i];
      if (jacobi) {
        partial[3] += z[i] * q[i];
        partial[4] += q[i] * inv_diag[i] * q[i];
      }
    }
    // One pass streams each distinct vector once (p, r, q [, z, d]), so
    // the DRAM term is per *vector*, not per dot — half the per-term
    // traffic of standalone dots.
    comm.compute(xmpi::ComputeCost{
        static_cast<double>(terms) * flops_dot,
        static_cast<double>(terms) * 8.0 * static_cast<double>(local_rows),
        kDot.efficiency});
    double g[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
    comm.allreduce(std::span<const double>(partial, terms),
                   std::span<double>(g, terms), xmpi::ReduceOp::kSum);
    comm.prof_phase_end();
    const double pq = g[0];
    PLIN_CHECK_MSG(pq > 0.0, "cg: matrix is not positive definite");
    const double alpha = (jacobi ? rz : rr) / pq;

    comm.prof_phase_begin("cg:axpy");
    for (std::size_t i = 0; i < local_rows; ++i) {
      x[i] += alpha * p_ext[i];
      r[i] -= alpha * q[i];
    }
    charge_axpy(4.0 * static_cast<double>(local_rows));
    comm.prof_phase_end();

    // ||r - a q||^2 = ||r||^2 - 2 a (r.q) + a^2 (q.q), guarded by the
    // residual-replacement floor above: once the value is small enough for
    // the frozen rounding offset to matter, re-measure directly
    // (deterministically — the recurrence inputs are replicated bitwise, so
    // every rank takes the same branch).
    double rr_next = rr - 2.0 * alpha * g[1] + alpha * alpha * g[2];
    if (rr_next <= rec_floor) rr_next = global_dot(r, r);
    result.iterations = iter;
    result.relative_residual = std::sqrt(rr_next) / b_norm;
    if (result.relative_residual <= options.tolerance) {
      result.converged = true;
      break;
    }

    double beta = 0.0;
    if (jacobi) {
      apply_precond();
      // Same recurrence through M^{-1}: (r-aq).M^{-1}(r-aq)
      //   = rz - 2 a (z.q) + a^2 (q.M^{-1}q), with the same
      //   residual-replacement guard (z holds M^{-1} r_new here, so the
      //   direct re-measure is well-defined).
      double rz_next = rz - 2.0 * alpha * g[3] + alpha * alpha * g[4];
      if (rz_next <= rz_floor) rz_next = global_dot(r, z);
      beta = rz_next / rz;
      rz = rz_next;
    } else {
      beta = rr_next / rr;
    }
    rr = rr_next;

    comm.prof_phase_begin("cg:axpy");
    const std::vector<double>& direction_src = jacobi ? z : r;
    for (std::size_t i = 0; i < local_rows; ++i) {
      p_ext[i] = direction_src[i] + beta * p_ext[i];
    }
    charge_axpy(2.0 * static_cast<double>(local_rows));
    comm.prof_phase_end();
  }

  // -- gather the solution to rank 0 ----------------------------------------
  comm.prof_phase_begin("cg:gather");
  if (ranks == 1) {
    result.x = std::move(x);
  } else {
    x.resize(chunk, 0.0);  // pad a short or empty last block
    if (rank == 0) {
      result.x.assign(chunk * static_cast<std::size_t>(ranks), 0.0);
    }
    comm.gather(std::span<const double>(x), std::span<double>(result.x), 0);
    if (rank == 0) result.x.resize(n);  // drop the last block's padding
  }
  comm.prof_phase_end();
  return result;
}

}  // namespace plin::solvers
