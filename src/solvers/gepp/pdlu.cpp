#include "solvers/gepp/pdlu.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"

namespace plin::solvers::pdlu {
namespace {

constexpr int kTagSwap = 20;

/// Prof phase names per precision.
template <typename T>
struct Phases;

template <>
struct Phases<double> {
  static constexpr const char* kSetup = "gepp:setup";
  static constexpr const char* kFactorPanel = "gepp:factor_panel";
  static constexpr const char* kPivotBcast = "gepp:pivot_bcast";
  static constexpr const char* kRowSwap = "gepp:row_swap";
  static constexpr const char* kLpanelBcast = "gepp:lpanel_bcast";
  static constexpr const char* kU12 = "gepp:u12";
  static constexpr const char* kGemm = "gepp:gemm";
  static constexpr const char* kSolve = "gepp:solve";
};

template <>
struct Phases<float> {
  static constexpr const char* kSetup = "gepp32:setup";
  static constexpr const char* kFactorPanel = "gepp32:factor_panel";
  static constexpr const char* kPivotBcast = "gepp32:pivot_bcast";
  static constexpr const char* kRowSwap = "gepp32:row_swap";
  static constexpr const char* kLpanelBcast = "gepp32:lpanel_bcast";
  static constexpr const char* kU12 = "gepp32:u12";
  static constexpr const char* kGemm = "gepp32:gemm";
  static constexpr const char* kSolve = "gepp32:solve";
};

/// Pure data movement (row swaps): flops-free memory traffic.
template <typename T>
xmpi::ComputeCost movement(double bytes) {
  return xmpi::ComputeCost{0.0, bytes, 1.0, kPrecision<T>};
}

/// Exchanges (or locally swaps) the pieces of global rows ga and gb that
/// fall in the local column range [c0, c1). Runs inside the process column.
template <typename T>
void swap_row_segments(Grid& grid, Workspace<T>& ws,
                       linalg::BasicMatrix<T>& local, std::size_t ga,
                       std::size_t gb, std::size_t c0, std::size_t c1) {
  if (ga == gb || c1 <= c0) return;
  const int prow_a = grid.desc.owner_prow(ga);
  const int prow_b = grid.desc.owner_prow(gb);
  const std::size_t width = c1 - c0;
  if (prow_a == prow_b) {
    if (grid.myrow == prow_a) {
      const std::size_t la = grid.desc.local_row(ga);
      const std::size_t lb = grid.desc.local_row(gb);
      linalg::swap_rows<T>(local.row(la).subspan(c0, width),
                           local.row(lb).subspan(c0, width));
      grid.world.compute(
          movement<T>(2.0 * sizeof(T) * static_cast<double>(width)));
    }
    return;
  }
  if (grid.myrow != prow_a && grid.myrow != prow_b) return;
  const std::size_t lmine =
      grid.desc.local_row(grid.myrow == prow_a ? ga : gb);
  const int peer = grid.myrow == prow_a ? prow_b : prow_a;
  ws.swap_outgoing.assign(local.row(lmine).begin() + c0,
                          local.row(lmine).begin() + c1);
  ws.swap_incoming.resize(width);
  grid.col_comm.sendrecv(std::span<const T>(ws.swap_outgoing),
                         std::span<T>(ws.swap_incoming), peer, kTagSwap);
  std::copy(ws.swap_incoming.begin(), ws.swap_incoming.end(),
            local.row(lmine).begin() + c0);
  grid.world.compute(movement<T>(2.0 * sizeof(T) * static_cast<double>(width)));
}

/// Factors the panel [k0, k0+w) inside its process column, filling
/// pivots[k0..k0+w). Only ranks with mycol == panel pcol call this. A
/// column whose best candidate fails the > 0 test (zero in T, or NaN: the
/// maxloc contract never lets NaN beat a numeric candidate) gets
/// kDeadPivot and ends the panel; every rank of the process column sees
/// the same allreduce value and stops at the same column.
template <typename T>
void factor_panel(Grid& grid, Workspace<T>& ws, Factors<T>& f,
                  std::size_t k0, std::size_t w) {
  linalg::BasicMatrix<T>& local = f.local;
  const std::size_t lrows = local.rows();
  std::vector<T> pivot_row;
  std::vector<T> multipliers;
  double panel_flops = 0.0;

  for (std::size_t j = k0; j < k0 + w; ++j) {
    const std::size_t lj = grid.desc.local_col(j);

    // Distributed pivot search over rows >= j.
    T best = T(-1);
    long long best_row = static_cast<long long>(j);
    for (std::size_t li = grid.local_rows_below(j); li < lrows; ++li) {
      const T v = std::fabs(local(li, lj));
      if (v > best) {
        best = v;
        best_row =
            static_cast<long long>(grid.desc.global_row(li, grid.myrow));
      }
    }
    const xmpi::Comm::MaxLocT<T> piv =
        grid.col_comm.allreduce_maxloc(best, best_row);
    if (!(piv.value > T(0))) {
      f.pivots[j] = kDeadPivot;
      break;
    }
    const std::size_t piv_row = static_cast<std::size_t>(piv.index);
    f.pivots[j] = piv_row;

    // Swap rows j <-> piv_row within the panel columns.
    swap_row_segments(grid, ws, local, j, piv_row, grid.local_cols_below(k0),
                      grid.local_cols_below(k0) + w);

    // Broadcast the (post-swap) pivot row segment [j, k0+w) down the
    // process column; its first element is the pivot value.
    const std::size_t seg = k0 + w - j;
    pivot_row.resize(seg);
    const int prow_j = grid.desc.owner_prow(j);
    if (grid.myrow == prow_j) {
      const std::size_t ljr = grid.desc.local_row(j);
      for (std::size_t c = 0; c < seg; ++c) {
        pivot_row[c] = local(ljr, lj + c);
      }
    }
    grid.col_comm.bcast(std::span<T>(pivot_row), prow_j);

    // Scale column j below the diagonal (gathering the strided multiplier
    // column once), then rank-1-update the panel. The charged flop formula
    // does not depend on the host kernel path.
    const T inv = T(1) / pivot_row[0];
    const std::size_t lo = grid.local_rows_below(j + 1);
    multipliers.resize(lrows - lo);
    for (std::size_t li = lo; li < lrows; ++li) {
      local(li, lj) *= inv;
      multipliers[li - lo] = local(li, lj);
    }
    if (lrows > lo && seg > 1) {
      linalg::ger<T>(T(-1), multipliers,
                     std::span<const T>(pivot_row.data() + 1, seg - 1),
                     local.view().sub(lo, lj + 1, lrows - lo, seg - 1));
    }
    panel_flops += static_cast<double>((lrows - lo) * (2 * seg - 1)) +
                   static_cast<double>(lrows - grid.local_rows_below(j));
  }
  grid.world.compute(cost_of<T>(kPanel, panel_flops));
}

}  // namespace

Grid make_grid(xmpi::Comm& comm, std::size_t n, std::size_t nb) {
  const linalg::ProcessGrid pg = linalg::ProcessGrid::squarest(comm.size());
  xmpi::Comm row_comm = comm.split(comm.rank() / pg.pcols, comm.rank());
  xmpi::Comm col_comm = comm.split(comm.rank() % pg.pcols, comm.rank());
  return Grid{comm,
              std::move(row_comm),
              std::move(col_comm),
              linalg::BlockCyclicDesc{n, n, nb, nb, pg},
              pg.row_of(comm.rank()),
              pg.col_of(comm.rank())};
}

template <typename T>
Factors<T> generate(Grid& grid, std::uint64_t seed, double entry_scale) {
  const std::size_t n = grid.desc.n;
  grid.world.prof_phase_begin(Phases<T>::kSetup);
  const std::size_t lrows = grid.desc.local_rows(grid.myrow);
  const std::size_t lcols = grid.desc.local_cols(grid.mycol);
  Factors<T> f{std::vector<std::size_t>(n, 0),
               linalg::BasicMatrix<T>(std::max<std::size_t>(lrows, 1),
                                      std::max<std::size_t>(lcols, 1))};
  // A local row is one contiguous global segment per nb-wide column block.
  const std::size_t nb = grid.desc.nb;
  std::vector<double> segment(nb);
  for (std::size_t li = 0; li < lrows; ++li) {
    const std::size_t gi = grid.desc.global_row(li, grid.myrow);
    for (std::size_t lj0 = 0; lj0 < lcols; lj0 += nb) {
      const std::size_t len = std::min(nb, lcols - lj0);
      linalg::system_row(seed, n, gi, grid.desc.global_col(lj0, grid.mycol),
                         std::span<double>(segment.data(), len));
      for (std::size_t k = 0; k < len; ++k) {
        f.local(li, lj0 + k) = static_cast<T>(entry_scale * segment[k]);
      }
    }
  }
  grid.world.memory_touch(static_cast<double>(f.local.size_bytes()));
  grid.world.prof_phase_end();
  return f;
}

template <typename T>
bool factor_one_panel(Grid& grid, Factors<T>& f, std::size_t k0,
                      Workspace<T>& ws) {
  xmpi::Comm& comm = grid.world;
  linalg::BasicMatrix<T>& local = f.local;
  const std::size_t n = grid.desc.n;
  const std::size_t lrows = grid.desc.local_rows(grid.myrow);
  const std::size_t lcols = grid.desc.local_cols(grid.mycol);
  const std::size_t w = std::min(grid.desc.nb, n - k0);
  const int panel_pcol = grid.desc.owner_pcol(k0);
  const int prow_k = grid.desc.owner_prow(k0);

  if (grid.mycol == panel_pcol) {
    comm.prof_phase_begin(Phases<T>::kFactorPanel);
    factor_panel(grid, ws, f, k0, w);
    comm.prof_phase_end();
  }

  // Pivot indices travel along the process row so every process column
  // can apply the interchanges (and every rank learns the permutation for
  // the solve phase, or the dead-pivot verdict).
  comm.prof_phase_begin(Phases<T>::kPivotBcast);
  const auto panel_pivots = std::span<std::size_t>(f.pivots).subspan(k0, w);
  grid.row_comm.bcast(panel_pivots, panel_pcol);
  comm.prof_phase_end();
  if (std::find(panel_pivots.begin(), panel_pivots.end(), kDeadPivot) !=
      panel_pivots.end()) {
    return false;
  }

  // Apply this panel's interchanges to the leading and trailing columns.
  comm.prof_phase_begin(Phases<T>::kRowSwap);
  const std::size_t c_panel_lo = grid.local_cols_below(k0);
  const std::size_t c_panel_hi = grid.local_cols_below(k0 + w);
  for (std::size_t j = k0; j < k0 + w; ++j) {
    swap_row_segments(grid, ws, local, j, f.pivots[j], 0, c_panel_lo);
    swap_row_segments(grid, ws, local, j, f.pivots[j], c_panel_hi, lcols);
  }
  comm.prof_phase_end();

  const std::size_t r_k0 = grid.local_rows_below(k0);
  const std::size_t slab_rows = lrows - r_k0;

  // L panel travels along the process row.
  if (slab_rows > 0) {
    comm.prof_phase_begin(Phases<T>::kLpanelBcast);
    ws.panel_slab = linalg::BasicMatrix<T>(slab_rows, w);
    if (grid.mycol == panel_pcol) {
      for (std::size_t r = 0; r < slab_rows; ++r) {
        for (std::size_t c = 0; c < w; ++c) {
          ws.panel_slab(r, c) = local(r_k0 + r, c_panel_lo + c);
        }
      }
    }
    grid.row_comm.bcast(std::span<T>(ws.panel_slab.flat()), panel_pcol);
    comm.prof_phase_end();
  }

  if (k0 + w >= n) return true;

  // U12 := L11^{-1} A12 inside the pivot process row, then down the
  // process columns.
  comm.prof_phase_begin(Phases<T>::kU12);
  const std::size_t c_trail = grid.local_cols_below(k0 + w);
  const std::size_t trail_cols = lcols - c_trail;
  ws.u12 = linalg::BasicMatrix<T>(w, std::max<std::size_t>(trail_cols, 1));
  if (grid.myrow == prow_k && trail_cols > 0) {
    linalg::BasicView<const T> l11 = ws.panel_slab.view().sub(0, 0, w, w);
    linalg::BasicView<T> a12 = local.view().sub(r_k0, c_trail, w, trail_cols);
    linalg::trsm_lower_unit<T>(l11, a12);
    comm.compute(cost_of<T>(kTrsm, static_cast<double>(w) *
                                       static_cast<double>(w) *
                                       static_cast<double>(trail_cols)));
    for (std::size_t r = 0; r < w; ++r) {
      for (std::size_t c = 0; c < trail_cols; ++c) {
        ws.u12(r, c) = local(r_k0 + r, c_trail + c);
      }
    }
  }
  if (trail_cols > 0) {
    grid.col_comm.bcast(std::span<T>(ws.u12.flat()), prow_k);
  }
  comm.prof_phase_end();

  // Trailing update: A22 -= L21 * U12 with my local pieces.
  comm.prof_phase_begin(Phases<T>::kGemm);
  const std::size_t r_lo2 = grid.local_rows_below(k0 + w);
  const std::size_t gemm_rows = lrows - r_lo2;
  if (gemm_rows > 0 && trail_cols > 0) {
    linalg::BasicView<const T> l21 =
        ws.panel_slab.view().sub(r_lo2 - r_k0, 0, gemm_rows, w);
    linalg::BasicView<const T> u12v = ws.u12.view().sub(0, 0, w, trail_cols);
    linalg::BasicView<T> a22 =
        local.view().sub(r_lo2, c_trail, gemm_rows, trail_cols);
    linalg::gemm<T>(T(-1), l21, u12v, T(1), a22);
    comm.compute(cost_of<T>(kGemm, 2.0 * static_cast<double>(gemm_rows) *
                                       static_cast<double>(w) *
                                       static_cast<double>(trail_cols)));
  }
  comm.prof_phase_end();
  return true;
}

template <typename T>
std::vector<double> solve(Grid& grid, const Factors<T>& f,
                          std::vector<double> rhs) {
  const std::size_t n = grid.desc.n;
  PLIN_CHECK_MSG(rhs.size() == n, "pdgetrs: rhs size mismatch");
  xmpi::Comm& world = grid.world;
  world.prof_phase_begin(Phases<T>::kSolve);
  const std::size_t nb = grid.desc.nb;
  const std::size_t lcols = grid.desc.local_cols(grid.mycol);
  const linalg::BasicMatrix<T>& local = f.local;

  // At double the solve runs in place on rhs, at float on one narrowed
  // copy: two extra n-vectors per rank would cost every rank of a
  // many-rank job its share of peak memory.
  std::vector<T> y;
  if constexpr (std::is_same_v<T, double>) {
    y = std::move(rhs);
  } else {
    y.assign(rhs.begin(), rhs.end());
  }
  // Apply the pivot permutation (known everywhere) locally.
  for (std::size_t j = 0; j < n; ++j) {
    if (f.pivots[j] != j) std::swap(y[j], y[f.pivots[j]]);
  }

  std::vector<T> partial;
  std::vector<T> reduced;
  std::vector<T> block_y;

  // Per diagonal block: partial dot products against the solved part of
  // y reduce along the process row, the block owner solves the small
  // triangle and broadcasts it. The forward (unit L) sweep takes the blocks
  // in order, the backward (U) sweep in reverse; `lower` picks the columns
  // and the triangle.
  const auto block_step = [&](std::size_t k0, bool lower) {
    const std::size_t w = std::min(nb, n - k0);
    const int prow_k = grid.desc.owner_prow(k0);
    const int pcol_k = grid.desc.owner_pcol(k0);
    partial.assign(w, T(0));
    if (grid.myrow == prow_k) {
      const std::size_t r_k0 = grid.local_rows_below(k0);
      const std::size_t c_lo = lower ? 0 : grid.local_cols_below(k0 + w);
      const std::size_t c_hi = lower ? grid.local_cols_below(k0) : lcols;
      for (std::size_t r = 0; r < w; ++r) {
        T sum = T(0);
        for (std::size_t c = c_lo; c < c_hi; ++c) {
          sum += local(r_k0 + r, c) * y[grid.desc.global_col(c, grid.mycol)];
        }
        partial[r] = sum;
      }
      world.compute(cost_of<T>(kSubstitution,
                               2.0 * static_cast<double>(w) *
                                   static_cast<double>(c_hi - c_lo)));
      reduced.assign(w, T(0));
      grid.row_comm.reduce(std::span<const T>(partial),
                           std::span<T>(reduced), xmpi::ReduceOp::kSum,
                           pcol_k);
    }
    block_y.assign(w, T(0));
    if (grid.myrow == prow_k && grid.mycol == pcol_k) {
      const std::size_t r_k0 = grid.local_rows_below(k0);
      const std::size_t c_k0 = grid.local_cols_below(k0);
      for (std::size_t s = 0; s < w; ++s) {
        const std::size_t i = lower ? s : w - 1 - s;
        T v = y[k0 + i] - reduced[i];
        const std::size_t p_lo = lower ? 0 : i + 1;
        const std::size_t p_hi = lower ? i : w;
        for (std::size_t p = p_lo; p < p_hi; ++p) {
          v -= local(r_k0 + i, c_k0 + p) * block_y[p];
        }
        if (lower) {
          block_y[i] = v;
        } else {
          const T diag = local(r_k0 + i, c_k0 + i);
          PLIN_CHECK_MSG(diag != T(0), "pdgesv: singular U block");
          block_y[i] = v / diag;
        }
      }
      world.compute(cost_of<T>(kSubstitution, static_cast<double>(w * w)));
    }
    world.bcast(std::span<T>(block_y), grid.desc.grid.rank_of(prow_k, pcol_k));
    std::copy(block_y.begin(), block_y.end(), y.begin() + k0);
  };

  for (std::size_t k0 = 0; k0 < n; k0 += nb) block_step(k0, true);
  for (std::size_t bk = (n + nb - 1) / nb; bk-- > 0;) {
    block_step(bk * nb, false);
  }

  world.prof_phase_end();
  if constexpr (std::is_same_v<T, double>) {
    return y;
  } else {
    return std::vector<double>(y.begin(), y.end());
  }
}

#define PLIN_PDLU_INSTANTIATE(T)                                             \
  template Factors<T> generate<T>(Grid&, std::uint64_t, double);             \
  template bool factor_one_panel<T>(Grid&, Factors<T>&, std::size_t,         \
                                    Workspace<T>&);                          \
  template std::vector<double> solve<T>(Grid&, const Factors<T>&,            \
                                        std::vector<double>);

PLIN_PDLU_INSTANTIATE(float)
PLIN_PDLU_INSTANTIATE(double)
#undef PLIN_PDLU_INSTANTIATE

}  // namespace plin::solvers::pdlu
