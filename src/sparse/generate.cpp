#include "sparse/generate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "support/error.hpp"

namespace plin::sparse {
namespace {

/// SplitMix64 finalizer (the same stateless hash linalg/generate.cpp
/// uses), so entry (i, j) is independent of evaluation order and rank
/// count.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

// The hashed families key entry (i, j) on the *unordered* pair: an inner
// hash of the smaller index lo, mixed with the larger index hi. The inner
// half depends on lo alone, so it is computed once per index and shared by
// every entry whose smaller index it is.

/// Row-independent half of the value hash.
std::uint64_t value_key(std::uint64_t seed, std::size_t lo) {
  return mix(seed ^ (0xC5C5ULL + lo));
}

/// Symmetric hashed value in [-1, 1]: v(i, j) == v(j, i) by construction.
double pair_value(std::uint64_t lo_key, std::size_t n, std::size_t hi) {
  return 2.0 * unit_uniform(mix(lo_key ^ (hi * 0x9E37ULL + n))) - 1.0;
}

/// Row-independent half of the random family's presence hash.
std::uint64_t presence_key(std::size_t lo) { return mix(0xD6D6ULL + lo); }

/// Seed-independent presence test for the random family (~1/4 of the
/// window), symmetric in (i, j).
bool random_present(std::uint64_t lo_key, std::size_t n, std::size_t hi) {
  return (mix(lo_key ^ (hi * 0x85EBULL + n)) & 3) == 0;
}

std::size_t grid_side_2d(std::size_t n) {
  std::size_t g = 1;
  while (g * g < n) ++g;
  return g;
}

std::size_t grid_side_3d(std::size_t n) {
  std::size_t g = 1;
  while (g * g * g < n) ++g;
  return g;
}

bool hashed_values(SparseKind kind) {
  return kind == SparseKind::kBanded || kind == SparseKind::kRandom ||
         kind == SparseKind::kBlockDiag;
}

void check_column_range(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument(
        "sparse generate: n exceeds the 32-bit column index range");
  }
}

/// The single source of truth for the pattern of rows [row_lo, row_hi):
/// walk() visits every entry of every row, diagonal included, in row order
/// and in ascending column order *by construction* — stencil neighbours in
/// (z, y, x) lexicographic order, window and block columns left to right —
/// so no consumer sorts. The grid side is fixed at construction and the
/// grid coordinates advance from row to row without a division; the random
/// family's presence bits are hashed here, once per unordered pair.
class RowEmitter {
 public:
  RowEmitter(SparseKind kind, std::size_t n, std::size_t row_lo,
             std::size_t row_hi)
      : kind_(kind), n_(n), row_lo_(row_lo), row_hi_(row_hi) {
    if (kind == SparseKind::kStencil5 || kind == SparseKind::kStencil9) {
      g_ = grid_side_2d(n);
    } else if (kind == SparseKind::kStencil27) {
      g_ = grid_side_3d(n);
    } else if (kind == SparseKind::kRandom) {
      build_random_masks();
    }
  }

  /// Smallest min(i, j) over the rows' entries: a cache of the hashed
  /// families' row-independent keys covers [key_base(), row_hi).
  std::size_t key_base() const {
    switch (kind_) {
      case SparseKind::kBanded:
        return row_lo_ - std::min(row_lo_, kBandedHalfWidth);
      case SparseKind::kRandom:
        return row_lo_ - std::min(row_lo_, kRandomHalfWidth);
      case SparseKind::kBlockDiag:
        return row_lo_ / kDiagBlock * kDiagBlock;
      default:
        return row_lo_;
    }
  }

  /// col(i, j) for every entry, then end_row(i) after row i's last entry.
  template <typename Col, typename EndRow>
  void walk(Col&& col, EndRow&& end_row) const {
    switch (kind_) {
      case SparseKind::kStencil5:
      case SparseKind::kStencil9:
        walk_grid_2d(col, end_row);
        break;
      case SparseKind::kStencil27:
        walk_grid_3d(col, end_row);
        break;
      case SparseKind::kBanded:
        for (std::size_t i = row_lo_; i < row_hi_; ++i) {
          const std::size_t hi = std::min(n_ - 1, i + kBandedHalfWidth);
          for (std::size_t j = i - std::min(i, kBandedHalfWidth); j <= hi;
               ++j) {
            col(i, j);
          }
          end_row(i);
        }
        break;
      case SparseKind::kRandom:
        for (std::size_t i = row_lo_; i < row_hi_; ++i) {
          // Bit b < 32 is column i - 32 + b, bit b >= 32 is i + b - 31.
          const std::uint64_t mask = masks_[i - row_lo_];
          for (std::uint64_t m = mask & 0xFFFFFFFFULL; m != 0; m &= m - 1) {
            col(i, i - 32 + static_cast<std::size_t>(std::countr_zero(m)));
          }
          col(i, i);
          for (std::uint64_t m = mask >> 32; m != 0; m &= m - 1) {
            col(i, i + 1 + static_cast<std::size_t>(std::countr_zero(m)));
          }
          end_row(i);
        }
        break;
      case SparseKind::kBlockDiag:
        for (std::size_t i = row_lo_; i < row_hi_; ++i) {
          const std::size_t base = i / kDiagBlock * kDiagBlock;
          const std::size_t hi = std::min(n_, base + kDiagBlock);
          for (std::size_t j = base; j < hi; ++j) col(i, j);
          end_row(i);
        }
        break;
    }
  }

 private:
  /// Columns c - 1, c, c + 1 of one grid line through x, clipped to the
  /// grid and to n.
  template <typename Col>
  void line(Col& col, std::size_t i, std::size_t c, std::size_t x) const {
    if (x > 0 && c - 1 < n_) col(i, c - 1);
    if (c < n_) col(i, c);
    if (x + 1 < g_ && c + 1 < n_) col(i, c + 1);
  }

  template <typename Col, typename EndRow>
  void walk_grid_2d(Col& col, EndRow& end_row) const {
    const bool nine = kind_ == SparseKind::kStencil9;
    std::size_t x = row_lo_ % g_;
    std::size_t y = row_lo_ / g_;
    for (std::size_t i = row_lo_; i < row_hi_; ++i) {
      if (y > 0) {
        if (nine) {
          line(col, i, i - g_, x);
        } else {
          col(i, i - g_);
        }
      }
      line(col, i, i, x);
      if (y + 1 < g_) {
        if (nine) {
          line(col, i, i + g_, x);
        } else if (i + g_ < n_) {
          col(i, i + g_);
        }
      }
      end_row(i);
      if (++x == g_) {
        x = 0;
        ++y;
      }
    }
  }

  template <typename Col, typename EndRow>
  void walk_grid_3d(Col& col, EndRow& end_row) const {
    std::size_t x = row_lo_ % g_;
    std::size_t y = (row_lo_ / g_) % g_;
    std::size_t z = row_lo_ / (g_ * g_);
    for (std::size_t i = row_lo_; i < row_hi_; ++i) {
      const std::size_t z_hi = std::min(z + 1, g_ - 1);
      const std::size_t y_hi = std::min(y + 1, g_ - 1);
      for (std::size_t zz = z > 0 ? z - 1 : 0; zz <= z_hi; ++zz) {
        for (std::size_t yy = y > 0 ? y - 1 : 0; yy <= y_hi; ++yy) {
          line(col, i, (zz * g_ + yy) * g_ + x, x);
        }
      }
      end_row(i);
      if (++x == g_) {
        x = 0;
        if (++y == g_) {
          y = 0;
          ++z;
        }
      }
    }
  }

  /// Presence bits of the random family's rows. upper[k] bit d - 1 says
  /// whether (k, k + d) is present; by symmetry row i's bit for column
  /// i - d is upper[i - d] bit d - 1, so each unordered pair is hashed once.
  void build_random_masks() {
    constexpr std::size_t w = kRandomHalfWidth;
    const std::size_t base = key_base();
    std::vector<std::uint32_t> upper(row_hi_ - base, 0);
    for (std::size_t k = base; k < row_hi_; ++k) {
      const std::uint64_t key = presence_key(k);
      const std::size_t reach = std::min(w, n_ - 1 - k);
      std::uint32_t bits = 0;
      for (std::size_t d = 1; d <= reach; ++d) {
        // Branch-free: presence is a coin flip the predictor cannot learn.
        bits |= static_cast<std::uint32_t>(random_present(key, n_, k + d))
                << (d - 1);
      }
      upper[k - base] = bits;
    }
    // Transpose one diagonal per pass: each pass is a contiguous sweep.
    std::vector<std::uint32_t> lower(row_hi_ - row_lo_, 0);
    for (std::size_t d = 1; d <= w; ++d) {
      for (std::size_t i = std::max(row_lo_, d); i < row_hi_; ++i) {
        lower[i - row_lo_] |= ((upper[i - d - base] >> (d - 1)) & 1u)
                              << (w - d);
      }
    }
    masks_.resize(row_hi_ - row_lo_);
    for (std::size_t i = row_lo_; i < row_hi_; ++i) {
      masks_[i - row_lo_] =
          static_cast<std::uint64_t>(upper[i - base]) << w | lower[i - row_lo_];
    }
  }

  SparseKind kind_;
  std::size_t n_;
  std::size_t row_lo_;
  std::size_t row_hi_;
  std::size_t g_ = 1;                 // grid side (stencils)
  std::vector<std::uint64_t> masks_;  // per-row presence bits (random)
};

}  // namespace

const char* kind_token(SparseKind kind) {
  switch (kind) {
    case SparseKind::kStencil5: return "stencil5";
    case SparseKind::kStencil9: return "stencil9";
    case SparseKind::kStencil27: return "stencil27";
    case SparseKind::kBanded: return "banded";
    case SparseKind::kRandom: return "random";
    case SparseKind::kBlockDiag: return "blockdiag";
  }
  return "stencil5";
}

SparseKind parse_kind_token(const std::string& token) {
  if (token == "stencil5") return SparseKind::kStencil5;
  if (token == "stencil9") return SparseKind::kStencil9;
  if (token == "stencil27") return SparseKind::kStencil27;
  if (token == "banded") return SparseKind::kBanded;
  if (token == "random") return SparseKind::kRandom;
  if (token == "blockdiag") return SparseKind::kBlockDiag;
  throw InvalidArgument(
      "unknown matrix kind (use stencil5 | stencil9 | stencil27 | banded | "
      "random | blockdiag): " +
      token);
}

CsrMatrix generate_rows(SparseKind kind, std::uint64_t seed, std::size_t n,
                        std::size_t row_lo, std::size_t row_hi) {
  PLIN_CHECK_MSG(n > 0, "sparse generate: empty system");
  check_column_range(n);
  PLIN_CHECK_MSG(row_lo <= row_hi && row_hi <= n,
                 "sparse generate: bad row range");
  const RowEmitter emitter(kind, n, row_lo, row_hi);
  CsrMatrix a;
  a.rows = row_hi - row_lo;
  a.cols = n;
  a.row_ptr.assign(a.rows + 1, 0);
  std::size_t k = 0;
  emitter.walk([&](std::size_t, std::size_t) { ++k; },
               [&](std::size_t i) { a.row_ptr[i - row_lo + 1] = k; });
  a.col_idx.resize(k);
  a.values.resize(k);

  const bool hashed = hashed_values(kind);
  const std::size_t key_base = emitter.key_base();
  std::vector<std::uint64_t> keys;
  if (hashed) {
    keys.resize(row_hi - key_base);
    for (std::size_t lo = key_base; lo < row_hi; ++lo) {
      keys[lo - key_base] = value_key(seed, lo);
    }
  }
  std::uint32_t* cols = a.col_idx.data();
  double* vals = a.values.data();
  k = 0;
  std::size_t diag = 0;
  double abs_sum = 0.0;
  emitter.walk(
      [&](std::size_t i, std::size_t j) {
        cols[k] = static_cast<std::uint32_t>(j);
        if (j == i) {
          diag = k;
        } else {
          const double v = !hashed ? -1.0
                           : j < i ? pair_value(keys[j - key_base], n, i)
                                   : pair_value(keys[i - key_base], n, j);
          vals[k] = v;
          abs_sum += std::fabs(v);
        }
        ++k;
      },
      [&](std::size_t) {
        // Strict diagonal dominance with a uniform margin of 1: symmetric
        // + dominant + positive diagonal => SPD, truncation-safe. The sum
        // runs over the off-diagonals in ascending column order.
        vals[diag] = abs_sum + 1.0;
        abs_sum = 0.0;
      });
  return a;
}

CsrMatrix generate_matrix(SparseKind kind, std::uint64_t seed,
                          std::size_t n) {
  return generate_rows(kind, seed, n, 0, n);
}

double generated_residual(SparseKind kind, std::uint64_t seed, std::size_t n,
                          std::span<const double> x,
                          std::span<const double> b) {
  PLIN_CHECK_MSG(n > 0, "sparse residual: empty system");
  check_column_range(n);
  PLIN_CHECK_MSG(x.size() == n && b.size() == n,
                 "sparse residual: vector shape mismatch");
  // Per-row accumulation does not depend on which block holds the row, and
  // max is exact, so the blockwise maxima are scaled_residual's bits.
  double num = 0.0;
  double a_norm = 0.0;
  std::vector<double> ax;
  for (std::size_t lo = 0; lo < n; lo += kStreamBlockRows) {
    const std::size_t hi = std::min(n, lo + kStreamBlockRows);
    const CsrMatrix block = generate_rows(kind, seed, n, lo, hi);
    ax.resize(block.rows);
    spmv(block, x, ax);
    for (std::size_t r = 0; r < block.rows; ++r) {
      num = std::max(num, std::fabs(ax[r] - b[lo + r]));
    }
    a_norm = std::max(a_norm, inf_norm(block));
  }
  double x_norm = 0.0;
  for (const double v : x) x_norm = std::max(x_norm, std::fabs(v));
  const double denom = a_norm * x_norm * static_cast<double>(n);
  return denom == 0.0 ? num : num / denom;
}

std::size_t pattern_nnz(SparseKind kind, std::size_t n) {
  PLIN_CHECK_MSG(n > 0, "sparse generate: empty system");
  std::size_t count = 0;
  for (std::size_t lo = 0; lo < n; lo += kStreamBlockRows) {
    RowEmitter(kind, n, lo, std::min(n, lo + kStreamBlockRows))
        .walk([&](std::size_t, std::size_t) { ++count; },
              [](std::size_t) {});
  }
  return count;
}

std::size_t pattern_reach(SparseKind kind, std::size_t n) {
  switch (kind) {
    case SparseKind::kStencil5:
      return grid_side_2d(n);
    case SparseKind::kStencil9:
      return grid_side_2d(n) + 1;
    case SparseKind::kStencil27: {
      const std::size_t g = grid_side_3d(n);
      return g * g + g + 1;
    }
    case SparseKind::kBanded:
      return kBandedHalfWidth;
    case SparseKind::kRandom:
      return kRandomHalfWidth;
    case SparseKind::kBlockDiag:
      return std::min(kDiagBlock - 1, n - 1);
  }
  return 0;
}

double pattern_offdiag_sum(SparseKind kind) {
  switch (kind) {
    case SparseKind::kStencil5: return 4.0;
    case SparseKind::kStencil9: return 8.0;
    case SparseKind::kStencil27: return 26.0;
    // Hashed families: window slots * fill probability * E|v| = 0.5.
    case SparseKind::kBanded:
      return static_cast<double>(2 * kBandedHalfWidth) * 0.5;
    case SparseKind::kRandom:
      return static_cast<double>(2 * kRandomHalfWidth) * 0.25 * 0.5;
    case SparseKind::kBlockDiag:
      return static_cast<double>(kDiagBlock - 1) * 0.5;
  }
  return 1.0;
}

}  // namespace plin::sparse
