// gepp_mixed — mixed-precision parallel LU: single-precision factorization
// with double-precision iterative refinement, after LAPACK's dsgesv and
// SLATE's gesvMixed.
//
// The O(n^3) work (panel factorization, TRSM, trailing GEMM) runs entirely
// in fp32: it is pdgesv's own distributed LU (pdlu.hpp) instantiated at
// float, so it halves the bytes moved and charged per flop and runs against
// the cores' higher fp32 peak. The
// O(n^2) cleanup runs in fp64: per sweep, a distributed residual
// r = b - A x (each rank regenerates its contiguous row block of A), a
// correction solve against the retained fp32 factors, and x += d. The sweep
// stops when ||r||_inf <= ||A||_inf ||x||_inf n eps64 — the refined answer
// is then as backward-stable as a full fp64 solve.
//
// When fp32 cannot carry the system — a pivot underflows to zero or NaN
// during the factorization, or the residual stops halving between sweeps —
// the solver falls back to one full fp64 factorization and reports
// fell_back. The fallback is the same LU at double, i.e. exactly pdgesv's
// factorization, so it profiles under pdgesv's gepp:* phases (the fp32
// work is gepp32:*). A dead pivot reaches every rank through the pivot
// broadcast each panel already sends, with no separate verdict message.
// Both the failure detection and the fallback are collective and
// deterministic: every rank takes the same branch at the same step, so
// results stay bit-identical across worker counts and collective
// schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/blockcyclic.hpp"
#include "solvers/efficiency.hpp"
#include "xmpi/comm.hpp"

namespace plin::solvers {

struct GeppMixedOptions {
  std::size_t n = 0;       // system dimension
  std::uint64_t seed = 1;  // generator seed (same system on every rank)
  std::size_t nb = kDefaultBlock;
  /// Refinement sweeps before declaring stagnation. 30 matches LAPACK's
  /// ITERMAX in dsgesv; well-conditioned systems converge in 1-3.
  int max_iters = 30;
  /// Scales every generated matrix entry. 1.0 is the canonical system.
  /// Badly scaled systems are the classic fp32 failure mode; tests use
  /// this knob to force the fallback deterministically (entries below
  /// ~1e-45 flush to zero in fp32, entries near 1e38 overflow).
  double entry_scale = 1.0;
};

struct GeppMixedResult {
  std::vector<double> x;  // replicated solution
  linalg::ProcessGrid grid;
  /// fp64 refinement sweeps performed (0 = the first fp32 solve already
  /// met the tolerance, or the factorization failed before refining).
  int iters = 0;
  /// True when the fp32 path was abandoned and x comes from a full fp64
  /// factorization.
  bool fell_back = false;
  /// ||b - A x||_inf at exit, always evaluated in fp64.
  double residual_norm = 0.0;
};

/// Runs the mixed-precision distributed solve on `comm` for the system
/// generated from (seed, n). Call collectively from every rank. Throws only
/// if the system is singular in fp64 too.
GeppMixedResult solve_gepp_mixed(xmpi::Comm& comm,
                                 const GeppMixedOptions& options);

}  // namespace plin::solvers
