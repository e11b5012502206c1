// Runtime configuration for the blocked kernel engine (see kernels.hpp and
// docs/kernels.md).
//
// The packed GEMM pipeline is parameterized the BLIS way: three cache block
// sizes (MC x KC panels of A, KC x NC panels of B) and an MR x NR register
// tile computed by an unrolled micro-kernel. All five are fields of
// KernelConfig, installed with set_kernel_config (tests and benches), so
// machines can be tuned without recompiling; the register tile is snapped to
// the nearest compiled micro-kernel variant. Nothing reads them from the
// environment: KC reorders GEMM sums, and a setting outside every store key
// must not move cached result bits.
//
// None of these knobs affect the flop counts the solvers charge to xmpi's
// virtual clock: simulated durations/energy are invariant under them (the
// engine only changes host wall-clock).
#pragma once

#include <cstddef>

namespace plin::linalg {

struct KernelConfig {
  // Cache blocking: A is packed in MC x KC panels, B in KC x NC panels.
  std::size_t mc = 128;
  std::size_t kc = 256;
  std::size_t nc = 4096;
  // Register tile; snapped to a compiled micro-kernel (see kernels.cpp).
  std::size_t mr = 0;  // 0 = pick the best variant for the compiled ISA
  std::size_t nr = 0;
  // Diagonal block size for the blocked triangular solves.
  std::size_t trsm_block = 64;
  // Column tile for the rank-1 update (keeps the y chunk cache-resident).
  std::size_t ger_block = 2048;

  /// Compiled-in defaults (ISA-appropriate register tile).
  static KernelConfig defaults();

  /// Copy with every field clamped/snapped to values the engine supports:
  /// (mr, nr) becomes a compiled micro-kernel pair, mc is rounded up to a
  /// multiple of mr, nc to a multiple of nr, and all blocks are >= 1.
  KernelConfig normalized() const;
};

/// The config every kernel call reads (defaults() until set).
const KernelConfig& active_kernel_config();

/// Install a new active config (normalized first). Used by tuners, the
/// bench harness and the tests; not thread-safe by design (the engine is
/// single-threaded like the rest of the simulator).
void set_kernel_config(const KernelConfig& config);

/// Drop back to the normalized defaults().
void reset_kernel_config();

}  // namespace plin::linalg
