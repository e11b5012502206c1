// Exhaustive agreement tests for the blocked kernel engine against the
// retained naive reference kernels. A deliberately tiny KernelConfig is
// installed so even small problems cross every blocking boundary (cache
// blocks, register tiles, TRSM diagonal blocks) and exercise all edge-tile
// code paths.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "linalg/kernel_config.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace plin::linalg {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (double& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// max |x - y| over two same-shape matrices.
double max_abs_diff(const Matrix& x, const Matrix& y) {
  double d = 0.0;
  for (std::size_t i = 0; i < x.flat().size(); ++i) {
    d = std::max(d, std::fabs(x.flat()[i] - y.flat()[i]));
  }
  return d;
}

/// Installs a tiny blocking config so every test shape straddles block
/// boundaries, and restores the environment config afterwards.
class KernelsBlockedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    KernelConfig cfg = KernelConfig::defaults();
    cfg.mc = 8;
    cfg.kc = 6;
    cfg.nc = 16;
    cfg.mr = 4;
    cfg.nr = 8;
    cfg.trsm_block = 5;
    cfg.ger_block = 7;
    set_kernel_config(cfg);
  }
  void TearDown() override { reset_kernel_config(); }
};

TEST_F(KernelsBlockedTest, GemmMatchesNaiveOverEdgeShapes) {
  // Shapes straddle the register tile (4x8), the cache blocks (8/6/16) and
  // single-element degenerate cases.
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 33};
  for (std::size_t m : sizes) {
    for (std::size_t n : sizes) {
      for (std::size_t k : sizes) {
        const Matrix a = random_matrix(m, k, 1000 + m * 64 + k);
        const Matrix b = random_matrix(k, n, 2000 + k * 64 + n);
        const Matrix c0 = random_matrix(m, n, 3000 + m * 64 + n);
        Matrix c_naive = c0;
        Matrix c_blocked = c0;
        dgemm_naive(1.0, a.view(), b.view(), 0.5, c_naive.view());
        dgemm_blocked(1.0, a.view(), b.view(), 0.5, c_blocked.view());
        ASSERT_LE(max_abs_diff(c_naive, c_blocked),
                  1e-14 * static_cast<double>(k + 1))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(KernelsBlockedTest, GemmAlphaBetaSweep) {
  const double scalars[] = {0.0, 1.0, -1.0, 0.5};
  const std::size_t shapes[][3] = {{5, 9, 7}, {16, 16, 16}, {1, 17, 3}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[2], 11);
    const Matrix b = random_matrix(s[2], s[1], 22);
    const Matrix c0 = random_matrix(s[0], s[1], 33);
    for (double alpha : scalars) {
      for (double beta : scalars) {
        Matrix c_naive = c0;
        Matrix c_blocked = c0;
        dgemm_naive(alpha, a.view(), b.view(), beta, c_naive.view());
        dgemm_blocked(alpha, a.view(), b.view(), beta, c_blocked.view());
        ASSERT_LE(max_abs_diff(c_naive, c_blocked), 1e-13)
            << "alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

TEST_F(KernelsBlockedTest, GemmSubviewOperandsWithParentStride) {
  // Views into a larger parent exercise non-contiguous leading dimensions in
  // the packing routines and the C tile stores.
  const Matrix parent = random_matrix(40, 40, 44);
  Matrix out_parent = random_matrix(40, 40, 55);
  const ConstMatrixView a = parent.view().sub(1, 2, 13, 9);
  const ConstMatrixView b = parent.view().sub(15, 3, 9, 17);
  Matrix c_naive(13, 17);
  for (std::size_t i = 0; i < 13; ++i) {
    for (std::size_t j = 0; j < 17; ++j) {
      c_naive(i, j) = out_parent(i + 4, j + 6);
    }
  }
  dgemm_naive(-0.75, a, b, 0.25, c_naive.view());
  MatrixView c_blocked = out_parent.view().sub(4, 6, 13, 17);
  dgemm_blocked(-0.75, a, b, 0.25, c_blocked);
  double diff = 0.0;
  for (std::size_t i = 0; i < 13; ++i) {
    for (std::size_t j = 0; j < 17; ++j) {
      diff = std::max(diff, std::fabs(c_naive(i, j) - c_blocked(i, j)));
    }
  }
  EXPECT_LE(diff, 1e-13);
}

TEST_F(KernelsBlockedTest, GemmRegisterTileVariants) {
  // Every compiled micro-kernel (including the scalar fallbacks for tiles
  // narrower than the native vector width) agrees with the reference.
  const std::size_t tiles[][2] = {{4, 4}, {4, 8}, {8, 4},
                                  {6, 8}, {8, 8}, {8, 16}};
  const Matrix a = random_matrix(33, 19, 66);
  const Matrix b = random_matrix(19, 29, 77);
  const Matrix c0 = random_matrix(33, 29, 88);
  Matrix c_naive = c0;
  dgemm_naive(1.0, a.view(), b.view(), -1.0, c_naive.view());
  for (const auto& t : tiles) {
    KernelConfig cfg = KernelConfig::defaults();
    cfg.mc = 16;
    cfg.kc = 8;
    cfg.nc = 24;
    cfg.mr = t[0];
    cfg.nr = t[1];
    set_kernel_config(cfg);
    ASSERT_EQ(active_kernel_config().mr, t[0]);
    ASSERT_EQ(active_kernel_config().nr, t[1]);
    Matrix c_blocked = c0;
    dgemm_blocked(1.0, a.view(), b.view(), -1.0, c_blocked.view());
    ASSERT_LE(max_abs_diff(c_naive, c_blocked), 1e-13)
        << "tile " << t[0] << "x" << t[1];
  }
}

TEST_F(KernelsBlockedTest, GemmAlphaZeroDoesNotReadAOrB) {
  // BLAS contract: alpha == 0 must not reference A or B, so NaN/Inf there
  // cannot leak into C. Both paths share the quick return.
  Matrix a = random_matrix(6, 7, 1);
  Matrix b = random_matrix(7, 9, 2);
  a(3, 4) = kNaN;
  b(2, 2) = kInf;
  const Matrix c0 = random_matrix(6, 9, 3);
  for (double beta : {0.0, 1.0, 0.5}) {
    Matrix c_naive = c0;
    Matrix c_blocked = c0;
    dgemm_naive(0.0, a.view(), b.view(), beta, c_naive.view());
    dgemm_blocked(0.0, a.view(), b.view(), beta, c_blocked.view());
    for (std::size_t i = 0; i < c_naive.flat().size(); ++i) {
      ASSERT_TRUE(std::isfinite(c_naive.flat()[i]));
      ASSERT_EQ(c_naive.flat()[i], c_blocked.flat()[i]);
    }
  }
}

TEST_F(KernelsBlockedTest, GemmBetaZeroOverwritesNaNInC) {
  // beta == 0 overwrites C rather than scaling it, so prior NaNs vanish.
  const Matrix a = random_matrix(9, 5, 4);
  const Matrix b = random_matrix(5, 11, 5);
  Matrix c_naive(9, 11);
  Matrix c_blocked(9, 11);
  for (double& v : c_naive.flat()) v = kNaN;
  for (double& v : c_blocked.flat()) v = kNaN;
  dgemm_naive(1.0, a.view(), b.view(), 0.0, c_naive.view());
  dgemm_blocked(1.0, a.view(), b.view(), 0.0, c_blocked.view());
  for (std::size_t i = 0; i < c_naive.flat().size(); ++i) {
    ASSERT_TRUE(std::isfinite(c_naive.flat()[i]));
  }
  EXPECT_LE(max_abs_diff(c_naive, c_blocked), 1e-13);
}

TEST_F(KernelsBlockedTest, GemmPropagatesNaNAndInfLikeNaive) {
  // With alpha != 0 a NaN/Inf in A or B must poison exactly the rows/columns
  // it reaches — identically in both paths (no zero-skip shortcuts).
  Matrix a = random_matrix(13, 9, 6);
  Matrix b = random_matrix(9, 17, 7);
  a(2, 3) = kNaN;
  a(11, 0) = kInf;
  b(5, 9) = kNaN;
  const Matrix c0 = random_matrix(13, 17, 8);
  Matrix c_naive = c0;
  Matrix c_blocked = c0;
  dgemm_naive(1.0, a.view(), b.view(), 1.0, c_naive.view());
  dgemm_blocked(1.0, a.view(), b.view(), 1.0, c_blocked.view());
  for (std::size_t i = 0; i < 13; ++i) {
    for (std::size_t j = 0; j < 17; ++j) {
      ASSERT_EQ(std::isnan(c_naive(i, j)), std::isnan(c_blocked(i, j)))
          << "i=" << i << " j=" << j;
      if (!std::isnan(c_naive(i, j))) {
        ASSERT_EQ(std::isinf(c_naive(i, j)), std::isinf(c_blocked(i, j)));
        if (std::isfinite(c_naive(i, j))) {
          ASSERT_NEAR(c_naive(i, j), c_blocked(i, j), 1e-13);
        }
      }
    }
  }
  // Row 2 of C touches a(2,3) = NaN for every column; row 11 sees Inf*b.
  EXPECT_TRUE(std::isnan(c_naive(2, 0)));
  EXPECT_FALSE(std::isfinite(c_naive(11, 4)));
}

TEST_F(KernelsBlockedTest, GemmZeroTimesInfIsNaN) {
  // The old kernels skipped a_ip == 0 terms, silently turning 0 * Inf into
  // 0; both paths must now produce NaN per IEEE 754.
  Matrix a(1, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  Matrix b(2, 1);
  b(0, 0) = kInf;
  b(1, 0) = 1.0;
  for (auto* path : {&dgemm_naive, &dgemm_blocked}) {
    Matrix c(1, 1);
    c(0, 0) = 0.0;
    (*path)(1.0, a.view(), b.view(), 1.0, c.view());
    EXPECT_TRUE(std::isnan(c(0, 0)));
  }
}

TEST_F(KernelsBlockedTest, DispatcherPicksNaiveForSmallProducts) {
  // dgemm routes products below 16384 flops to the naive kernel and larger
  // ones to the engine; either way it must be bit-identical to calling the
  // chosen kernel directly.
  for (const std::size_t n : {8UL, 21UL}) {
    const Matrix a = random_matrix(n, n + 1, 9);
    const Matrix b = random_matrix(n + 1, n + 2, 10);
    const Matrix c0 = random_matrix(n, n + 2, 11);
    Matrix c_dispatch = c0;
    Matrix c_direct = c0;
    dgemm(1.0, a.view(), b.view(), 0.5, c_dispatch.view());
    if (n == 8) {
      dgemm_naive(1.0, a.view(), b.view(), 0.5, c_direct.view());
    } else {
      dgemm_blocked(1.0, a.view(), b.view(), 0.5, c_direct.view());
    }
    EXPECT_EQ(max_abs_diff(c_direct, c_dispatch), 0.0) << "n=" << n;
  }
}

TEST_F(KernelsBlockedTest, TrsmLowerUnitMatchesNaive) {
  // trsm_block = 5, so these sizes cover: below the block (naive dispatch),
  // exact multiples and ragged final blocks.
  for (std::size_t n : {1UL, 3UL, 5UL, 6UL, 10UL, 13UL, 16UL}) {
    for (std::size_t m : {1UL, 4UL, 9UL, 17UL}) {
      Matrix l = random_matrix(n, n, 100 + n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) l(i, j) *= 0.5;
        for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
        l(i, i) = 1.0;
      }
      const Matrix b0 = random_matrix(n, m, 200 + n * 32 + m);
      Matrix x_naive = b0;
      Matrix x_blocked = b0;
      dtrsm_lower_unit_naive(l.view(), x_naive.view());
      dtrsm_lower_unit_blocked(l.view(), x_blocked.view());
      ASSERT_LE(max_abs_diff(x_naive, x_blocked),
                1e-12 * static_cast<double>(n))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST_F(KernelsBlockedTest, TrsmUpperMatchesNaive) {
  for (std::size_t n : {1UL, 3UL, 5UL, 6UL, 10UL, 13UL, 16UL}) {
    for (std::size_t m : {1UL, 4UL, 9UL, 17UL}) {
      Matrix u = random_matrix(n, n, 300 + n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
        for (std::size_t j = i + 1; j < n; ++j) u(i, j) *= 0.5;
        u(i, i) = 2.0 + u(i, i);  // diagonal well away from zero
      }
      const Matrix b0 = random_matrix(n, m, 400 + n * 32 + m);
      Matrix x_naive = b0;
      Matrix x_blocked = b0;
      dtrsm_upper_naive(u.view(), x_naive.view());
      dtrsm_upper_blocked(u.view(), x_blocked.view());
      ASSERT_LE(max_abs_diff(x_naive, x_blocked),
                1e-12 * static_cast<double>(n))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST_F(KernelsBlockedTest, TrsmUpperSingularDiagonalThrows) {
  Matrix u = random_matrix(8, 8, 500);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
    u(i, i) = 1.0;
  }
  u(6, 6) = 0.0;  // inside the second diagonal block (trsm_block = 5)
  Matrix b = random_matrix(8, 3, 501);
  EXPECT_THROW(dtrsm_upper_blocked(u.view(), b.view()), Error);
}

TEST_F(KernelsBlockedTest, DgerBitIdenticalToNaive) {
  // The tiled rank-1 update reorders only the traversal, never the
  // arithmetic, so it must agree bit-for-bit with the naive sweep.
  for (std::size_t m : {1UL, 5UL, 7UL, 20UL}) {
    for (std::size_t n : {1UL, 6UL, 7UL, 8UL, 23UL}) {
      Rng rng(600 + m * 32 + n);
      std::vector<double> x(m);
      std::vector<double> y(n);
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
      for (double& v : y) v = rng.uniform(-1.0, 1.0);
      const Matrix a0 = random_matrix(m, n, 700 + m * 32 + n);
      Matrix a_tiled = a0;
      Matrix a_naive = a0;
      dger(-1.5, x, y, a_tiled.view());
      dger_naive(-1.5, x, y, a_naive.view());
      ASSERT_EQ(max_abs_diff(a_naive, a_tiled), 0.0) << "m=" << m
                                                     << " n=" << n;
    }
  }
}

TEST(KernelConfigTest, NormalizeSnapsRegisterTileAndBlocks) {
  KernelConfig cfg = KernelConfig::defaults();
  cfg.mr = 5;  // not a compiled variant; must snap to a supported pair
  cfg.nr = 6;
  cfg.mc = 30;
  cfg.nc = 33;
  const KernelConfig norm = cfg.normalized();
  const std::size_t supported[][2] = {{4, 4}, {4, 8}, {8, 4},
                                      {6, 8}, {8, 8}, {8, 16}};
  bool found = false;
  for (const auto& t : supported) {
    found = found || (norm.mr == t[0] && norm.nr == t[1]);
  }
  EXPECT_TRUE(found) << norm.mr << "x" << norm.nr;
  EXPECT_EQ(norm.mc % norm.mr, 0u);
  EXPECT_EQ(norm.nc % norm.nr, 0u);
  EXPECT_GE(norm.kc, 1u);
}

TEST(KernelConfigTest, DefaultsPickCompiledTile) {
  const KernelConfig cfg = KernelConfig::defaults().normalized();
  EXPECT_GE(cfg.mr, 4u);
  EXPECT_GE(cfg.nr, 4u);
  EXPECT_GE(cfg.mc, cfg.mr);
  EXPECT_GE(cfg.nc, cfg.nr);
}

}  // namespace
}  // namespace plin::linalg
