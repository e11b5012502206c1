// Runtime-selectable CSR SpMV kernels (docs/sparse.md).
//
// Two kernels compute y = A x row by row:
//
//   kScalar  the PR 9 reference loop: two independent accumulators over
//            even/odd entry pairs, summed as acc0 + acc1. This is the
//            default and what every checked-in baseline was produced with.
//   kSimd    a lane-blocked kernel with W = 8 accumulator lanes. Full
//            blocks of 8 entries feed lane l with entry k + l; the row
//            remainder (len < 8) touches lanes 0..len-1 in order; the row
//            finishes with a fixed-width tree:
//                t1[l] = acc[l] + acc[l+4]   (l = 0..3)
//                t2[l] = t1[l] + t1[l+2]     (l = 0..1)
//                y[r]  = t2[0] + t2[1]
//            The AVX-512 path maps the 8 lanes onto one zmm register
//            (i32 gather + separate mul/add, no FMA contraction), the
//            AVX2 path onto two ymm registers (lanes 0-3 / 4-7), and the
//            portable fallback emulates the lanes in order — all three
//            follow the same accumulation bracketing, so the kernel's
//            semantics are fixed by this comment, not by the ISA. The
//            widest path the host supports is picked once at runtime
//            (per-function target attributes, no global -march), so the
//            same binary runs everywhere.
//
// Selection follows the PR 5 opt-in precedent (linalg/kernel_config.hpp):
// compiled-in default, PLIN_SPARSE_KERNEL={scalar,simd} environment
// override read once, and set/reset hooks for benches and tests.
//
// One nuance differs from the dense kernel knobs: the two kernels bracket
// per-row sums differently, so switching kernels legitimately moves
// solution bits (and hence the CG trajectory). The determinism contract is
// therefore *per kernel*: at any fixed PLIN_SPARSE_KERNEL setting, results
// are bit-identical across worker counts and collective modes.
// Charged flops/bytes never depend on the kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "sparse/csr.hpp"

namespace plin::sparse {

enum class SpmvKernel { kScalar, kSimd };

/// "scalar" / "simd" — the PLIN_SPARSE_KERNEL token for a kernel.
const char* kernel_token(SpmvKernel kernel);

/// Parses a PLIN_SPARSE_KERNEL token; throws InvalidArgument otherwise.
SpmvKernel parse_kernel_token(const std::string& token);

/// The ISA the kSimd kernel dispatches to on this host: "avx512", "avx2"
/// or "generic". Benches use this to pick an honest speedup floor.
const char* simd_isa();

struct SpmvConfig {
  SpmvKernel kernel = SpmvKernel::kScalar;

  /// Compiled-in defaults (scalar — the reference path).
  static SpmvConfig defaults();

  /// defaults() overridden by PLIN_SPARSE_KERNEL (unknown tokens throw).
  static SpmvConfig from_env();
};

/// The config every spmv call reads (initialized from_env on first use).
const SpmvConfig& active_spmv_config();

/// Install a new active config. Like the dense engine, not thread-safe by
/// design (kernel selection happens before worlds spawn).
void set_spmv_config(const SpmvConfig& config);

/// Drop back to the environment-derived config.
void reset_spmv_config();

/// y[r] = (A x)[r] for exactly the rows listed in `rows`; every other y
/// entry is left untouched. Per-row accumulation is identical to the full
/// spmv under the same active kernel, so computing a row here or there
/// yields the same bits — the property the CG interior/boundary split
/// relies on (docs/sparse.md).
void spmv_rows(const CsrMatrix& a, std::span<const double> x,
               std::span<double> y, std::span<const std::uint32_t> rows);

}  // namespace plin::sparse
