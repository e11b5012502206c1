// Tests for the CSR sparse layer: structural validation and repair,
// SpMV against a dense reference, the deterministic SPD generators behind
// the CG workload family, and the Matrix Market round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/mm.hpp"
#include "support/error.hpp"

namespace plin::sparse {
namespace {

/// Dense lookup into a CSR matrix (0.0 where no entry exists).
double entry(const CsrMatrix& a, std::size_t i, std::size_t j) {
  for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
    if (a.col_idx[k] == j) return a.values[k];
  }
  return 0.0;
}

TEST(CsrTest, EmptyMatrixAndEmptyRowsValidate) {
  const CsrMatrix empty = make_empty(4, 7);
  EXPECT_EQ(empty.nnz(), 0u);
  empty.validate();

  // Interior empty rows are fine too.
  CsrMatrix a;
  a.rows = 3;
  a.cols = 3;
  a.row_ptr = {0, 1, 1, 2};  // row 1 is empty
  a.col_idx = {0, 2};
  a.values = {2.0, 3.0};
  a.validate();

  std::vector<double> x = {1.0, 1.0, 1.0};
  std::vector<double> y(3, -1.0);
  spmv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(CsrTest, SingleRowAndSingleColumn) {
  CsrMatrix row;
  row.rows = 1;
  row.cols = 4;
  row.row_ptr = {0, 3};
  row.col_idx = {0, 2, 3};
  row.values = {1.0, 2.0, 3.0};
  row.validate();
  std::vector<double> y(1);
  spmv(row, std::vector<double>{1.0, 10.0, 100.0, 1000.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 200.0 + 3000.0);

  CsrMatrix col;
  col.rows = 3;
  col.cols = 1;
  col.row_ptr = {0, 1, 1, 2};
  col.col_idx = {0, 0};
  col.values = {5.0, -2.0};
  col.validate();
  std::vector<double> z(3);
  spmv(col, std::vector<double>{2.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 10.0);
  EXPECT_DOUBLE_EQ(z[1], 0.0);
  EXPECT_DOUBLE_EQ(z[2], -4.0);
  EXPECT_DOUBLE_EQ(inf_norm(col), 5.0);
}

TEST(CsrTest, ValidateRejectsMalformedStructure) {
  CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  a.values = {1.0, 1.0};
  a.validate();  // baseline is fine

  CsrMatrix bad = a;
  bad.row_ptr = {0, 2, 1};  // non-monotone offsets
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.col_idx[1] = 9;  // column out of range
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.row_ptr = {0, 1};  // wrong offset count
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.values.pop_back();  // streams disagree
  EXPECT_THROW(bad.validate(), Error);

  bad = a;
  bad.rows = 1;
  bad.cols = 2;
  bad.row_ptr = {0, 2};
  bad.col_idx = {1, 0};  // unsorted row
  bad.values = {1.0, 2.0};
  EXPECT_THROW(bad.validate(), Error);
}

TEST(CsrTest, NormalizeSortsAndMergesDuplicates) {
  CsrMatrix a;
  a.rows = 2;
  a.cols = 3;
  a.row_ptr = {0, 4, 5};
  a.col_idx = {2, 0, 2, 1, 0};  // row 0 unsorted with a duplicate column 2
  a.values = {1.0, 5.0, 2.5, -1.0, 7.0};
  EXPECT_THROW(a.validate(), Error);
  a.normalize();
  a.validate();
  EXPECT_EQ(a.nnz(), 4u);
  EXPECT_DOUBLE_EQ(entry(a, 0, 0), 5.0);
  EXPECT_DOUBLE_EQ(entry(a, 0, 1), -1.0);
  EXPECT_DOUBLE_EQ(entry(a, 0, 2), 3.5);  // 1.0 + 2.5 merged
  EXPECT_DOUBLE_EQ(entry(a, 1, 0), 7.0);
}

TEST(CsrTest, SpmvMatchesDenseMatvec) {
  const std::size_t n = 64;
  const CsrMatrix a = generate_matrix(SparseKind::kBanded, 11, n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) + 0.5);
  }
  std::vector<double> y(n);
  spmv(a, x, y);
  // Dense reference via the entry() probe.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += entry(a, i, j) * x[j];
    EXPECT_NEAR(y[i], acc, 1e-12) << "row " << i;
  }
}

TEST(CsrTest, SpmvAndResidualRejectBadShapes) {
  const CsrMatrix a = generate_matrix(SparseKind::kStencil5, 1, 16);
  std::vector<double> short_x(8);
  std::vector<double> y(16);
  EXPECT_THROW(spmv(a, short_x, y), Error);

  // scaled_residual requires a square system.
  CsrMatrix rect = make_empty(2, 3);
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> b = {0.0, 0.0};
  EXPECT_THROW((void)scaled_residual(rect, x, b), Error);
}

class GeneratorParam : public ::testing::TestWithParam<SparseKind> {};

TEST_P(GeneratorParam, SymmetricDiagonallyDominantAndCountable) {
  const SparseKind kind = GetParam();
  const std::size_t n = 90;  // not a perfect square or cube: clipped edges
  const CsrMatrix a = generate_matrix(kind, 7, n);
  a.validate();
  EXPECT_EQ(a.rows, n);
  EXPECT_EQ(a.cols, n);
  EXPECT_EQ(a.nnz(), pattern_nnz(kind, n));
  // pattern_nnz counts in blocks of kStreamBlockRows; span several.
  EXPECT_EQ(generate_matrix(kind, 7, 36864).nnz(), pattern_nnz(kind, 36864));

  for (std::size_t i = 0; i < n; ++i) {
    double offdiag = 0.0;
    for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const std::size_t j = a.col_idx[k];
      // Symmetry: every entry has its mirror with the identical value.
      EXPECT_DOUBLE_EQ(a.values[k], entry(a, j, i))
          << "asymmetric at (" << i << ", " << j << ")";
      if (j != i) offdiag += std::fabs(a.values[k]);
    }
    // Diagonal = |off-diagonal| sum + 1 (strict dominance, margin 1).
    EXPECT_NEAR(entry(a, i, i), offdiag + 1.0, 1e-12) << "row " << i;
  }
}

TEST_P(GeneratorParam, StructurallySymmetricAtBenchSizes) {
  // The distributed CG trades halo requests with the ranks it needs ghosts
  // from only, which is sound iff (i, j) is present exactly when (j, i) is.
  // Checked at ragged sizes and at the sizes the benches run. Rows stream
  // in blocks of kStreamBlockRows; a ring of reach + 1 pending-row lists
  // holds each upper entry (i, j) until row j arrives, where the lower
  // entries must be exactly those mirrors, so memory stays O(reach).
  const SparseKind kind = GetParam();
  for (const std::size_t n :
       {1000ul, 4097ul, 16384ul, 36864ul, 1ul << 17, 1ul << 18}) {
    const std::size_t reach = pattern_reach(kind, n);
    std::vector<std::vector<std::uint32_t>> pending(reach + 1);
    std::vector<std::uint32_t> lower;
    std::size_t beyond_reach = 0;
    std::size_t asymmetric_rows = 0;
    for (std::size_t lo = 0; lo < n; lo += kStreamBlockRows) {
      const std::size_t hi = std::min(n, lo + kStreamBlockRows);
      const CsrMatrix block = generate_rows(kind, 1, n, lo, hi);
      for (std::size_t li = 0; li < block.rows; ++li) {
        const std::size_t i = lo + li;
        lower.clear();
        for (std::size_t k = block.row_ptr[li]; k < block.row_ptr[li + 1];
             ++k) {
          const std::size_t j = block.col_idx[k];
          if (j < i) {
            lower.push_back(static_cast<std::uint32_t>(j));
          } else if (j - i > reach) {
            ++beyond_reach;
          } else if (j > i) {
            pending[j % pending.size()].push_back(
                static_cast<std::uint32_t>(i));
          }
        }
        std::vector<std::uint32_t>& mirrors = pending[i % pending.size()];
        if (lower != mirrors) ++asymmetric_rows;
        mirrors.clear();
      }
    }
    EXPECT_EQ(beyond_reach, 0u) << kind_token(kind) << " n=" << n;
    EXPECT_EQ(asymmetric_rows, 0u) << kind_token(kind) << " n=" << n;
  }
}

TEST_P(GeneratorParam, RowBlocksTileTheFullMatrix) {
  const SparseKind kind = GetParam();
  const std::size_t n = 75;
  const CsrMatrix full = generate_matrix(kind, 3, n);
  // Concatenating uneven row blocks must reproduce the full matrix exactly
  // (the property the distributed CG generation relies on).
  std::size_t row = 0;
  for (const std::size_t hi : {20ul, 21ul, 75ul}) {
    const CsrMatrix block = generate_rows(kind, 3, n, row, hi);
    EXPECT_EQ(block.rows, hi - row);
    for (std::size_t i = 0; i < block.rows; ++i) {
      const std::size_t g = row + i;
      ASSERT_EQ(block.row_ptr[i + 1] - block.row_ptr[i],
                full.row_ptr[g + 1] - full.row_ptr[g]);
      for (std::size_t k = 0; k < block.row_ptr[i + 1] - block.row_ptr[i];
           ++k) {
        EXPECT_EQ(block.col_idx[block.row_ptr[i] + k],
                  full.col_idx[full.row_ptr[g] + k]);
        EXPECT_EQ(block.values[block.row_ptr[i] + k],
                  full.values[full.row_ptr[g] + k]);
      }
    }
    row = hi;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorParam,
                         ::testing::Values(SparseKind::kStencil5,
                                           SparseKind::kStencil9,
                                           SparseKind::kStencil27,
                                           SparseKind::kBanded,
                                           SparseKind::kRandom,
                                           SparseKind::kBlockDiag));

TEST(GeneratorTest, BlockDiagCouplesOnlyInsideAlignedBlocks) {
  // n = 150: two full 64-row blocks plus a clipped 22-row tail. Every
  // entry must stay inside its row's 64-aligned block — the property that
  // makes 64-aligned partitions halo-free in the distributed CG.
  const std::size_t n = 150;
  const CsrMatrix a = generate_matrix(SparseKind::kBlockDiag, 3, n);
  a.validate();
  EXPECT_EQ(a.nnz(), pattern_nnz(SparseKind::kBlockDiag, n));
  EXPECT_EQ(pattern_reach(SparseKind::kBlockDiag, n), kDiagBlock - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = (i / kDiagBlock) * kDiagBlock;
    const std::size_t hi = std::min(n, base + kDiagBlock);
    EXPECT_EQ(a.row_ptr[i + 1] - a.row_ptr[i], hi - base) << "row " << i;
    for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      EXPECT_GE(a.col_idx[k], base) << "row " << i;
      EXPECT_LT(a.col_idx[k], hi) << "row " << i;
    }
  }
  // Tiny matrices degenerate to a single dense block.
  EXPECT_EQ(pattern_reach(SparseKind::kBlockDiag, 5), 4u);
  EXPECT_EQ(pattern_nnz(SparseKind::kBlockDiag, 5), 25u);
}

/// FNV-1a 64 folded over the bytes of `v`.
template <typename T>
std::uint64_t fnv1a(std::uint64_t h, const std::vector<T>& v) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

struct GeneratorPin {
  SparseKind kind;
  std::size_t n;
  std::uint64_t digest;
};

// Digests of the generator's output as first released, before the row
// emitter replaced the per-row pattern walk: seeds 3 and 1234567, each as
// the uneven row blocks [0, n/7), [n/7, 3n/5), [3n/5, n), with row_ptr,
// col_idx and value bytes folded in that order.
constexpr GeneratorPin kGeneratorPins[] = {
    {SparseKind::kStencil5, 1, 0x1223d818f4b1dd05ULL},
    {SparseKind::kStencil5, 64, 0x3c1ff9d49d222aa5ULL},
    {SparseKind::kStencil5, 90, 0x22f1d7fc48329d65ULL},
    {SparseKind::kStencil5, 4097, 0x8951c59e27ebb121ULL},
    {SparseKind::kStencil5, 36864, 0xefce01191f8fff55ULL},
    {SparseKind::kStencil9, 1, 0x1223d818f4b1dd05ULL},
    {SparseKind::kStencil9, 64, 0x63c7909755415325ULL},
    {SparseKind::kStencil9, 90, 0x6e122f82614589cdULL},
    {SparseKind::kStencil9, 4097, 0x16c1d0091cc42ef1ULL},
    {SparseKind::kStencil9, 36864, 0xa0c0a4649bfc9269ULL},
    {SparseKind::kStencil27, 1, 0x1223d818f4b1dd05ULL},
    {SparseKind::kStencil27, 64, 0xa058e24ba6c24929ULL},
    {SparseKind::kStencil27, 90, 0x270488dd93c7ed41ULL},
    {SparseKind::kStencil27, 4097, 0x4752e845fa41aeb9ULL},
    {SparseKind::kStencil27, 36864, 0x9071b46981207375ULL},
    {SparseKind::kBanded, 1, 0x1223d818f4b1dd05ULL},
    {SparseKind::kBanded, 64, 0xc1754bb16ba73742ULL},
    {SparseKind::kBanded, 90, 0xe88e01223517e723ULL},
    {SparseKind::kBanded, 4097, 0x32a259e2c7dc5a3dULL},
    {SparseKind::kBanded, 36864, 0x79dde52599471fa9ULL},
    {SparseKind::kRandom, 1, 0x1223d818f4b1dd05ULL},
    {SparseKind::kRandom, 64, 0xb85d59cdb5d2fc2bULL},
    {SparseKind::kRandom, 90, 0x2940f60ebc411f1eULL},
    {SparseKind::kRandom, 4097, 0x3fd1bb29896953c7ULL},
    {SparseKind::kRandom, 36864, 0xb8bdc6cd91265dbeULL},
    {SparseKind::kBlockDiag, 1, 0x1223d818f4b1dd05ULL},
    {SparseKind::kBlockDiag, 64, 0xf9525330a498d9a7ULL},
    {SparseKind::kBlockDiag, 90, 0x492f5798432111dcULL},
    {SparseKind::kBlockDiag, 4097, 0xbadace4937018023ULL},
    {SparseKind::kBlockDiag, 36864, 0x740f93016f01cd17ULL},
};

TEST(GeneratorTest, RowBlocksMatchPinnedDigests) {
  for (const GeneratorPin& pin : kGeneratorPins) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t seed : {3ULL, 1234567ULL}) {
      const std::size_t cuts[] = {0, pin.n / 7, pin.n * 3 / 5, pin.n};
      for (int b = 0; b < 3; ++b) {
        const CsrMatrix block =
            generate_rows(pin.kind, seed, pin.n, cuts[b], cuts[b + 1]);
        h = fnv1a(h, block.row_ptr);
        h = fnv1a(h, block.col_idx);
        h = fnv1a(h, block.values);
      }
    }
    EXPECT_EQ(h, pin.digest) << kind_token(pin.kind) << " n=" << pin.n;
  }
}

TEST(GeneratorTest, RejectsSystemsBeyond32BitColumns) {
  const std::size_t widest = std::numeric_limits<std::uint32_t>::max();
  // The last row of the widest system keeps its top column exactly.
  const CsrMatrix last =
      generate_rows(SparseKind::kBanded, 1, widest, widest - 1, widest);
  EXPECT_EQ(last.col_idx.back(), widest - 1);
  EXPECT_THROW((void)generate_rows(SparseKind::kStencil5, 1, widest + 1, 0, 0),
               InvalidArgument);
  const std::vector<double> one(1, 1.0);
  EXPECT_THROW(
      (void)generated_residual(SparseKind::kBanded, 1, widest + 1, one, one),
      InvalidArgument);
}

TEST(GeneratorTest, GeneratedResidualMatchesFullMatrixBitwise) {
  // n = 1, inside one stream block, and a partial last block.
  const std::size_t sizes[] = {1, 777, 2 * kStreamBlockRows + 123};
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom, SparseKind::kBlockDiag}) {
    for (const std::size_t n : sizes) {
      std::vector<double> x(n);
      std::vector<double> b(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i) * 0.7);
        b[i] = std::cos(static_cast<double>(i) * 0.3);
      }
      EXPECT_EQ(generated_residual(kind, 9, n, x, b),
                scaled_residual(generate_matrix(kind, 9, n), x, b))
          << kind_token(kind) << " n=" << n;
    }
  }
}

TEST(GeneratorTest, RandomPatternIsSeedIndependent) {
  const std::size_t n = 120;
  const CsrMatrix a = generate_matrix(SparseKind::kRandom, 1, n);
  const CsrMatrix b = generate_matrix(SparseKind::kRandom, 999, n);
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.col_idx, b.col_idx);  // same pattern...
  EXPECT_NE(a.values, b.values);    // ...different values
}

TEST(GeneratorTest, TokensRoundTripAndRejectUnknown) {
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom, SparseKind::kBlockDiag}) {
    EXPECT_EQ(parse_kind_token(kind_token(kind)), kind);
  }
  EXPECT_THROW(parse_kind_token("dense"), InvalidArgument);
}

TEST(GeneratorTest, PatternReachBoundsColumnDistance) {
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom,
        SparseKind::kBlockDiag}) {
    const std::size_t n = 100;
    const std::size_t reach = pattern_reach(kind, n);
    const CsrMatrix a = generate_matrix(kind, 5, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const std::size_t j = a.col_idx[k];
        const std::size_t dist = j > i ? j - i : i - j;
        EXPECT_LE(dist, reach) << kind_token(kind);
      }
    }
  }
}

TEST(SpmvKernelTest, SpmvRowsPartitionReproducesFullSpmvBitwise) {
  // The CG iteration computes interior rows, then boundary rows, as two
  // spmv_rows calls — the union must be bitwise the full spmv (per-row
  // accumulation does not depend on which call ran it).
  const std::size_t n = 180;
  const CsrMatrix a = generate_matrix(SparseKind::kStencil5, 21, n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 1.7) + 0.25;
  }
  std::vector<double> full(n);
  spmv(a, x, full);

  // An interleaved split (evens as "interior", odds as "boundary") is
  // harsher than any contiguous boundary split.
  std::vector<std::uint32_t> evens;
  std::vector<std::uint32_t> odds;
  for (std::uint32_t r = 0; r < n; ++r) {
    (r % 2 == 0 ? evens : odds).push_back(r);
  }
  std::vector<double> split(n, -7.0);
  spmv_rows(a, x, split, evens);
  spmv_rows(a, x, split, odds);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(split[i], full[i]) << "row " << i;
  }
}

TEST(MatrixMarketTest, RoundTripIsExact) {
  const CsrMatrix a = generate_matrix(SparseKind::kRandom, 13, 60);
  std::ostringstream os;
  save_matrix_market(a, os);
  std::istringstream is(os.str());
  const CsrMatrix back = load_matrix_market(is);
  EXPECT_EQ(back.rows, a.rows);
  EXPECT_EQ(back.cols, a.cols);
  EXPECT_EQ(back.row_ptr, a.row_ptr);
  EXPECT_EQ(back.col_idx, a.col_idx);
  EXPECT_EQ(back.values, a.values);  // %.17g round-trips doubles exactly
}

TEST(MatrixMarketTest, WriterIsByteStable) {
  const CsrMatrix a = generate_matrix(SparseKind::kBanded, 2, 24);
  std::ostringstream first;
  std::ostringstream second;
  save_matrix_market(a, first);
  save_matrix_market(a, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(MatrixMarketTest, ReaderNormalizesUnsortedInputAndSumsDuplicates) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment line\n"
      "\n"
      "2 2 4\n"
      "1 2 3.0\n"
      "1 1 1.0\n"
      "2 2 5.0\n"
      "1 2 0.5\n");
  const CsrMatrix a = load_matrix_market(is);
  a.validate();
  EXPECT_EQ(a.nnz(), 3u);  // duplicate (1,2) summed
  EXPECT_DOUBLE_EQ(entry(a, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(entry(a, 0, 1), 3.5);
  EXPECT_DOUBLE_EQ(entry(a, 1, 1), 5.0);
}

TEST(MatrixMarketTest, ReaderRejectsGarbage) {
  std::istringstream no_banner("1 1 1\n1 1 2.0\n");
  EXPECT_THROW((void)load_matrix_market(no_banner), IoError);

  std::istringstream bad_coord(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW((void)load_matrix_market(bad_coord), IoError);

  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)load_matrix_market(truncated), IoError);

  // Column 2^32 + 1 would wrap to 0 in the 32-bit index stream.
  std::istringstream wide(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 4294967297 1\n"
      "1 4294967297 1.0\n");
  EXPECT_THROW((void)load_matrix_market(wide), IoError);

  // An absurd entry count must not be allocated up front.
  std::istringstream huge_count(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1000000000000\n"
      "1 1 2.0\n");
  EXPECT_THROW((void)load_matrix_market(huge_count), IoError);
}

}  // namespace
}  // namespace plin::sparse
