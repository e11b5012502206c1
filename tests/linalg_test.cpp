// Tests for the dense linear algebra substrate: matrix/views, BLAS-lite
// kernels against naive references, the block-cyclic distribution maps,
// deterministic generation and file I/O.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "linalg/blockcyclic.hpp"
#include "linalg/generate.hpp"
#include "linalg/io.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "support/rng.hpp"

namespace plin::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

TEST(MatrixTest, ViewsWindowWithoutCopying) {
  Matrix m(4, 6);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) m(i, j) = 10.0 * i + j;
  }
  MatrixView sub = m.view().sub(1, 2, 2, 3);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.cols(), 3u);
  EXPECT_DOUBLE_EQ(sub(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(sub(1, 2), 24.0);
  sub(0, 0) = -1.0;  // writes through to the parent
  EXPECT_DOUBLE_EQ(m(1, 2), -1.0);
  // Row spans honor the stride.
  EXPECT_EQ(sub.row(1).size(), 3u);
  EXPECT_DOUBLE_EQ(sub.row(1)[0], 22.0);
}

TEST(KernelsTest, Level1Basics) {
  std::vector<double> x = {1.0, -2.0, 3.0};
  std::vector<double> y = {10.0, 10.0, 10.0};
  daxpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  dscal(0.5, y);
  EXPECT_DOUBLE_EQ(y[2], 8.0);
  EXPECT_EQ(idamax(std::vector<double>{1.0, -5.0, 4.0}), 1u);
  std::vector<double> a = {1.0, 2.0};
  std::vector<double> b = {3.0, 4.0};
  dswap(a, b);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
}

TEST(KernelsTest, DaxpyChainIsBitIdenticalToSuccessiveDaxpys) {
  // Contraction guard: IMeP's deferred level updates stay bit-identical
  // only if the chain rounds every element exactly like daxpy does (one
  // fused multiply-add, or one multiply and one add, per step). Random
  // chain lengths, vector lengths and start offsets reach the two-lane
  // body, the one-lane step and the scalar tail at every alignment.
  Rng rng(97);
  int compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t m = 1 + rng.next_below(16);
    const std::size_t len = rng.next_below(101);
    const std::size_t begin = rng.next_below(8);
    const std::size_t end = begin + len;
    const std::size_t size = end + rng.next_below(4);
    std::vector<std::vector<double>> x(m, std::vector<double>(size));
    std::vector<const double*> xs(m);
    std::vector<double> alphas(m);
    for (std::size_t p = 0; p < m; ++p) {
      for (double& v : x[p]) v = rng.uniform(-1.0, 1.0);
      xs[p] = x[p].data();
      alphas[p] = rng.uniform(-2.0, 2.0);
    }
    std::vector<double> expected(size);
    for (double& v : expected) v = rng.uniform(-1.0, 1.0);
    std::vector<double> got = expected;

    for (std::size_t p = 0; p < m; ++p) {
      daxpy(alphas[p],
            std::span<const double>(x[p]).subspan(begin, len),
            std::span<double>(expected).subspan(begin, len));
    }
    daxpy_chain(alphas, xs, got, begin, end);
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "trial " << trial << " m=" << m << " begin=" << begin
          << " end=" << end << " i=" << i;
    }
    compared += static_cast<int>(len);
  }
  EXPECT_GT(compared, 0);
}

TEST(KernelsTest, IdamaxIgnoresNaNs) {
  // Pivot-selection contract (see kernels.hpp): a NaN is never selected and
  // never displaces the running maximum, so GEPP pivoting stays
  // deterministic on corrupted data instead of depending on NaN comparison
  // quirks.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN in the middle: the larger later element still wins.
  EXPECT_EQ(idamax(std::vector<double>{1.0, nan, 4.0}), 2u);
  // Leading NaN: first non-NaN becomes the initial maximum.
  EXPECT_EQ(idamax(std::vector<double>{nan, -2.0, 1.0}), 1u);
  // Trailing NaN cannot displace an established maximum.
  EXPECT_EQ(idamax(std::vector<double>{3.0, -1.0, nan}), 0u);
  // All NaN: falls back to index 0 (callers treat the pivot value as the
  // singularity signal, not the index).
  EXPECT_EQ(idamax(std::vector<double>{nan, nan, nan}), 0u);
  // Infinity is a legitimate maximum.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(idamax(std::vector<double>{1.0, -inf, nan}), 1u);
  // Ties resolve to the first occurrence (strict > comparison).
  EXPECT_EQ(idamax(std::vector<double>{-2.0, 2.0, 2.0}), 0u);
  // Signed zeros: |−0| == |0| == 0, first wins.
  EXPECT_EQ(idamax(std::vector<double>{-0.0, 0.0}), 0u);
}

TEST(KernelsTest, GemmMatchesNaiveTripleLoop) {
  const Matrix a = random_matrix(7, 5, 1);
  const Matrix b = random_matrix(5, 9, 2);
  Matrix c = random_matrix(7, 9, 3);
  Matrix expected = c;
  const double alpha = 1.7;
  const double beta = -0.4;
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      double dot = 0.0;
      for (std::size_t k = 0; k < 5; ++k) dot += a(i, k) * b(k, j);
      expected(i, j) = alpha * dot + beta * expected(i, j);
    }
  }
  dgemm(alpha, a.view(), b.view(), beta, c.view());
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(KernelsTest, GerMatchesNaive) {
  Matrix a = random_matrix(4, 3, 4);
  Matrix expected = a;
  const std::vector<double> x = {1.0, -1.0, 2.0, 0.5};
  const std::vector<double> y = {3.0, 0.0, -2.0};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      expected(i, j) += 0.7 * x[i] * y[j];
    }
  }
  dger(0.7, x, y, a.view());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(a(i, j), expected(i, j), 1e-14);
    }
  }
}

TEST(KernelsTest, TriangularSolvesInvertTriangularProducts) {
  // L (unit lower) * X = B.
  const std::size_t n = 6;
  Matrix l = random_matrix(n, n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  const Matrix x_true = random_matrix(n, 4, 6);
  Matrix b(n, 4);
  dgemm(1.0, l.view(), x_true.view(), 0.0, b.view());
  dtrsm_lower_unit(l.view(), b.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(b(i, j), x_true(i, j), 1e-12);
    }
  }

  // U (general diagonal) * X = B.
  Matrix u = random_matrix(n, n, 7);
  for (std::size_t i = 0; i < n; ++i) {
    u(i, i) = 2.0 + i;
    for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
  }
  Matrix b2(n, 4);
  dgemm(1.0, u.view(), x_true.view(), 0.0, b2.view());
  dtrsm_upper(u.view(), b2.view());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(b2(i, j), x_true(i, j), 1e-12);
    }
  }
}

TEST(KernelsTest, LaswpAppliesPivotsForward) {
  Matrix a(3, 2);
  a(0, 0) = 0.0; a(1, 0) = 1.0; a(2, 0) = 2.0;
  a(0, 1) = 10.0; a(1, 1) = 11.0; a(2, 1) = 12.0;
  const std::vector<std::size_t> pivots = {2, 2};  // swap(0,2), swap(1,2)
  dlaswp(a.view(), pivots);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(2, 0), 1.0);
}

TEST(KernelsTest, NormsAndResiduals) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = -2.0;
  a(1, 0) = 3.0; a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(matrix_inf_norm(a.view()), 7.0);
  EXPECT_DOUBLE_EQ(vector_inf_norm(std::vector<double>{1.0, -9.0}), 9.0);
  // x solves exactly => zero residual.
  const std::vector<double> x = {1.0, 1.0};
  const std::vector<double> b = {-1.0, 7.0};
  EXPECT_DOUBLE_EQ(residual_inf_norm(a.view(), x, b), 0.0);
  EXPECT_DOUBLE_EQ(scaled_residual(a.view(), x, b), 0.0);
}

// ---- block-cyclic ----------------------------------------------------------

TEST(BlockCyclicTest, NumrocPartitionsExactly) {
  for (std::size_t n : {1u, 7u, 64u, 65u, 100u, 1000u}) {
    for (std::size_t block : {1u, 3u, 8u, 64u}) {
      for (int nprocs : {1, 2, 3, 7}) {
        std::size_t total = 0;
        for (int p = 0; p < nprocs; ++p) {
          total += numroc(n, block, p, nprocs);
        }
        EXPECT_EQ(total, n) << n << " " << block << " " << nprocs;
      }
    }
  }
}

TEST(BlockCyclicTest, GlobalLocalRoundTrip) {
  const BlockCyclicDesc desc{37, 41, 4, 5, ProcessGrid{3, 2}};
  for (std::size_t i = 0; i < desc.m; ++i) {
    const int prow = desc.owner_prow(i);
    const std::size_t li = desc.local_row(i);
    EXPECT_EQ(desc.global_row(li, prow), i);
    EXPECT_LT(li, desc.local_rows(prow));
  }
  for (std::size_t j = 0; j < desc.n; ++j) {
    const int pcol = desc.owner_pcol(j);
    const std::size_t lj = desc.local_col(j);
    EXPECT_EQ(desc.global_col(lj, pcol), j);
    EXPECT_LT(lj, desc.local_cols(pcol));
  }
}

TEST(BlockCyclicTest, SquarestGridShapes) {
  EXPECT_EQ(ProcessGrid::squarest(1).prows, 1);
  EXPECT_EQ(ProcessGrid::squarest(4).prows, 2);
  EXPECT_EQ(ProcessGrid::squarest(6).prows, 2);
  EXPECT_EQ(ProcessGrid::squarest(6).pcols, 3);
  EXPECT_EQ(ProcessGrid::squarest(144).prows, 12);
  EXPECT_EQ(ProcessGrid::squarest(1296).prows, 36);
  EXPECT_EQ(ProcessGrid::squarest(7).prows, 1);  // prime: 1 x 7
}

TEST(BlockCyclicTest, GridRankMapping) {
  const ProcessGrid grid{3, 4};
  for (int r = 0; r < grid.size(); ++r) {
    EXPECT_EQ(grid.rank_of(grid.row_of(r), grid.col_of(r)), r);
  }
}

// ---- generation --------------------------------------------------------------

TEST(GenerateTest, SystemIsDeterministicAndDiagonallyDominant) {
  const std::size_t n = 50;
  const Matrix a = generate_system_matrix(9, n);
  const Matrix b = generate_system_matrix(9, n);
  EXPECT_TRUE(a == b);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) {
        off += std::fabs(a(i, j));
        EXPECT_LE(std::fabs(a(i, j)), 1.0);
      }
    }
    EXPECT_GT(std::fabs(a(i, i)), off);  // strict dominance
  }
  // Different seeds give different systems.
  const Matrix c = generate_system_matrix(10, n);
  EXPECT_FALSE(a == c);
}

TEST(GenerateTest, EntryFunctionMatchesMaterializedMatrix) {
  const std::size_t n = 20;
  const Matrix a = generate_system_matrix(3, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), system_entry(3, n, i, j));
    }
  }
  const std::vector<double> b = generate_rhs(3, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(b[i], rhs_entry(3, n, i));
  }
}

TEST(GenerateTest, SystemRowIsBitIdenticalToSystemEntry) {
  Rng rng(77);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{1536}}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::uint64_t seed = rng.next_u64();
      // Rows at both ends and one in the middle; segments that hold the
      // diagonal inside, at either end or not at all, plus the full row
      // and an empty span.
      for (const std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
        std::vector<std::pair<std::size_t, std::size_t>> segments = {
            {0, n}, {i, 1}, {i, n - i}, {0, i + 1}, {0, i}, {i + 1, n - i - 1},
            {n, 0}, {n / 3, 0}};
        if (i > 0 && i + 1 < n) segments.emplace_back(i - 1, 3);
        for (int s = 0; s < 6; ++s) {
          const std::size_t j0 = rng.next_u64() % n;
          segments.emplace_back(j0, rng.next_u64() % (n - j0 + 1));
        }
        for (const auto& [j0, len] : segments) {
          SCOPED_TRACE("n=" + std::to_string(n) + " i=" + std::to_string(i) +
                       " j0=" + std::to_string(j0) +
                       " len=" + std::to_string(len));
          // One sentinel past the span: system_row writes exactly len values.
          std::vector<double> out(len + 1, -7.0);
          system_row(seed, n, i, j0, std::span<double>(out.data(), len));
          for (std::size_t k = 0; k < len; ++k) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[k]),
                      std::bit_cast<std::uint64_t>(
                          system_entry(seed, n, i, j0 + k)))
                << "k=" << k;
          }
          EXPECT_EQ(out[len], -7.0);
        }
      }
    }
  }
}

TEST(GenerateTest, GeneratedResidualEqualsMaterializedScaledResidual) {
  Rng rng(78);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{300}}) {
    const std::uint64_t seed = rng.next_u64();
    const Matrix a = generate_system_matrix(seed, n);
    const std::vector<double> b = generate_rhs(seed, n);
    // A near-solution (one Jacobi sweep from zero: small but nonzero
    // residuals), an arbitrary vector and x = 0 (the denom == 0 branch).
    std::vector<double> jacobi(n);
    for (std::size_t i = 0; i < n; ++i) jacobi[i] = b[i] / a(i, i);
    std::vector<double> noise(n);
    for (double& v : noise) v = rng.uniform(-3.0, 3.0);
    const std::vector<double> zero(n, 0.0);
    const std::vector<double>* const xs[] = {&jacobi, &noise, &zero};
    for (const std::vector<double>* x : xs) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const double expected = scaled_residual(a.view(), *x, b);
      const double streamed = generated_residual(seed, n, *x, b);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(streamed),
                std::bit_cast<std::uint64_t>(expected))
          << streamed << " vs " << expected;
    }
  }
  EXPECT_THROW(generated_residual(1, 0, {}, {}), Error);
  const std::vector<double> short_x(3, 0.0);
  EXPECT_THROW(generated_residual(1, 4, short_x, generate_rhs(1, 4)), Error);
}

// ---- I/O ---------------------------------------------------------------------

TEST(IoTest, BinaryRoundTrip) {
  const std::string path = ::testing::TempDir() + "plin_io_test.plm";
  const Matrix a = random_matrix(13, 7, 21);
  save_matrix_binary(a, path);
  const Matrix b = load_matrix_binary(path);
  EXPECT_TRUE(a == b);
  std::filesystem::remove(path);
}

TEST(IoTest, TextRoundTrip) {
  const std::string path = ::testing::TempDir() + "plin_io_test.txt";
  const Matrix a = random_matrix(5, 9, 22);
  save_matrix_text(a, path);
  const Matrix b = load_matrix_text(path);
  ASSERT_EQ(b.rows(), 5u);
  ASSERT_EQ(b.cols(), 9u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), b(i, j));  // precision 17 round-trips
    }
  }
  std::filesystem::remove(path);
}

TEST(IoTest, VectorRoundTripAndErrors) {
  const std::string path = ::testing::TempDir() + "plin_io_test.plv";
  const std::vector<double> v = {1.0, -2.5, 1e-300, 4e200};
  save_vector_binary(v, path);
  EXPECT_EQ(load_vector_binary(path), v);
  // Wrong magic: a matrix file is not a vector file.
  save_matrix_binary(Matrix(2, 2), path);
  EXPECT_THROW(load_vector_binary(path), IoError);
  EXPECT_THROW(load_matrix_binary("/nonexistent/nowhere.plm"), IoError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace plin::linalg
