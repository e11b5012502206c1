// Tests for the CG solvers: sequential convergence on every SPD family,
// agreement between the distributed solver and its sequential oracle, the
// bit-identity contract across worker counts / collective modes, and the
// analytic iteration model backing the replay tier.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "hwmodel/placement.hpp"
#include "linalg/generate.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/cg/cg.hpp"
#include "sparse/generate.hpp"
#include "support/error.hpp"
#include "xmpi/runtime.hpp"

namespace plin::solvers {
namespace {

using sparse::SparseKind;

xmpi::RunConfig mini_config(int ranks) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/32, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

class CgFamilyParam : public ::testing::TestWithParam<SparseKind> {};

TEST_P(CgFamilyParam, SequentialConvergesWithSmallResidual) {
  const SparseKind kind = GetParam();
  const std::size_t n = 200;
  const std::uint64_t seed = 17;
  const sparse::CsrMatrix a = sparse::generate_matrix(kind, seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);

  const CgResult result = solve_cg(a, b, 1e-11, 1000);
  EXPECT_TRUE(result.converged) << sparse::kind_token(kind);
  EXPECT_LE(result.relative_residual, 1e-11);
  EXPECT_EQ(result.nnz, a.nnz());
  EXPECT_LT(sparse::scaled_residual(a, result.x, b), 1e-12);
}

TEST_P(CgFamilyParam, DistributedMatchesSequential) {
  const SparseKind kind = GetParam();
  const std::size_t n = 150;  // ragged row blocks at 4 ranks
  const std::uint64_t seed = 17;
  const sparse::CsrMatrix a = sparse::generate_matrix(kind, seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  const CgResult reference = solve_cg(a, b, 1e-11, 1000);
  ASSERT_TRUE(reference.converged);

  CgResult distributed;
  xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
    CgOptions options;
    options.kind = kind;
    options.n = n;
    options.seed = seed;
    const CgResult r = solve_pcg(comm, options);
    EXPECT_TRUE(r.converged);
    // The solution is gathered to rank 0 only: rank 0 holds a valid solve,
    // every other rank's x is empty.
    if (comm.rank() == 0) {
      EXPECT_EQ(r.x.size(), n);
      EXPECT_LT(sparse::scaled_residual(a, r.x, b), 1e-12);
      distributed = r;
    } else {
      EXPECT_TRUE(r.x.empty()) << "rank " << comm.rank();
    }
  });
  // The fused recurrence re-brackets the residual trajectory, so
  // termination may move by one iteration against the direct-dot oracle.
  EXPECT_LE(std::abs(distributed.iterations - reference.iterations), 1);
  EXPECT_EQ(distributed.nnz, a.nnz());
  ASSERT_EQ(distributed.x.size(), n);
  // Same Krylov trajectory up to the reduction bracketing: near-exact
  // agreement (the bit-identity contract is across *runtime* knobs, not
  // across rank counts, whose partial-sum bracketing legitimately differs).
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(distributed.x[i], reference.x[i],
                1e-9 * (std::fabs(reference.x[i]) + 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, CgFamilyParam,
                         ::testing::Values(SparseKind::kStencil5,
                                           SparseKind::kStencil9,
                                           SparseKind::kStencil27,
                                           SparseKind::kBanded,
                                           SparseKind::kRandom));

struct CgRun {
  std::vector<double> x;
  int iterations = 0;
  double duration_s = 0.0;
  double energy_j = 0.0;
};

CgRun run_cg(const xmpi::RunConfig& config, std::size_t n) {
  CgRun out;
  const xmpi::RunResult run =
      xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = SparseKind::kStencil5;
        options.n = n;
        options.seed = 9;
        const CgResult r = solve_pcg(comm, options);
        EXPECT_TRUE(r.converged);
        if (comm.rank() == 0) {
          out.x = r.x;
          out.iterations = r.iterations;
        }
      });
  out.duration_s = run.duration_s;
  out.energy_j = run.energy.total_j();
  return out;
}

TEST(CgDeterminism, BitIdenticalAcrossExecutorsWorkersAndCollectives) {
  const std::size_t n = 160;
  const int ranks = 8;

  xmpi::RunConfig base = mini_config(ranks);
  base.workers = 2;

  xmpi::RunConfig more_workers = mini_config(ranks);
  more_workers.workers = 5;

  xmpi::RunConfig threads = mini_config(ranks);
  threads.workers = ranks;  // one host worker per rank

  xmpi::RunConfig scalable = mini_config(ranks);
  scalable.transport.collectives = xmpi::CollectiveMode::kScalable;

  const CgRun reference = run_cg(base, n);
  ASSERT_EQ(reference.x.size(), n);
  // Host-execution knobs must not perturb anything simulated: solution,
  // iteration count, virtual duration and energy are all bit-identical.
  for (const xmpi::RunConfig& config : {more_workers, threads}) {
    const CgRun other = run_cg(config, n);
    EXPECT_EQ(other.iterations, reference.iterations);
    EXPECT_DOUBLE_EQ(other.duration_s, reference.duration_s);
    EXPECT_DOUBLE_EQ(other.energy_j, reference.energy_j);
    ASSERT_EQ(other.x.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Bitwise: the exact same double, not merely close.
      EXPECT_EQ(other.x[i], reference.x[i]) << "x[" << i << "]";
    }
  }
  // The scalable collectives change the simulated *schedule* (timing and
  // therefore energy legitimately move), but the reduction values are
  // bit-identical to the tree schedule at every P — so the trajectory,
  // iteration count and solution bits must not move.
  const CgRun sc = run_cg(scalable, n);
  EXPECT_EQ(sc.iterations, reference.iterations);
  EXPECT_GT(sc.duration_s, 0.0);
  ASSERT_EQ(sc.x.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(sc.x[i], reference.x[i]) << "x[" << i << "]";
  }
}

TEST(CgDeterminism, SingleRankMatchesMultiRankTrajectory) {
  // Not bitwise (partial-sum bracketing differs with the rank count), but
  // the iteration count is a sensitive trajectory probe: it must be stable
  // across world sizes for the campaign's iters column to be meaningful.
  // The fused recurrence may re-bracket termination by one iteration.
  const std::size_t n = 160;
  std::vector<int> iteration_counts;
  for (const int ranks : {1, 3, 8}) {
    iteration_counts.push_back(run_cg(mini_config(ranks), n).iterations);
  }
  ASSERT_EQ(iteration_counts.size(), 3u);
  EXPECT_LE(std::abs(iteration_counts[0] - iteration_counts[1]), 1);
  EXPECT_LE(std::abs(iteration_counts[1] - iteration_counts[2]), 1);
  EXPECT_LE(std::abs(iteration_counts[0] - iteration_counts[2]), 1);
}

TEST(CgOracle, FusedTracksSequentialWithinOneIteration) {
  // The fused recurrence legitimately re-brackets the residual trajectory;
  // the guarded residual replacement keeps it honest, so termination may
  // move by at most one iteration against the sequential oracle at every
  // P — including ragged blocks (160 % 3, 160 % 6, 160 % 12 != 0).
  const std::size_t n = 160;
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kStencil5, 9, n);
  const std::vector<double> b = linalg::generate_rhs(9, n);
  const CgResult reference = solve_cg(a, b, 1e-11, 1000);
  ASSERT_TRUE(reference.converged);
  for (const int ranks : {1, 3, 6, 12}) {
    const CgRun fused = run_cg(mini_config(ranks), n);
    EXPECT_LE(std::abs(fused.iterations - reference.iterations), 1)
        << "P=" << ranks;
    EXPECT_LT(sparse::scaled_residual(a, fused.x, b), 1e-12)
        << "P=" << ranks;
  }
}

TEST(CgOracle, SingleRankFirstIterateMatchesSequentialBitwise) {
  // At P = 1 the first iterate of the distributed solver is exactly the
  // oracle's (empty halo, identity allreduce, and the fused round brackets
  // p.q like a standalone dot). Later iterates legitimately differ: the
  // recurrence advances ||r||^2 instead of re-measuring it.
  const std::size_t n = 150;
  const std::uint64_t seed = 17;
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kBanded, SparseKind::kRandom}) {
    for (const CgPrecond precond : {CgPrecond::kNone, CgPrecond::kJacobi}) {
      const sparse::CsrMatrix a = sparse::generate_matrix(kind, seed, n);
      const std::vector<double> b = linalg::generate_rhs(seed, n);
      const CgResult reference = solve_cg(a, b, 1e-11, 1, precond);

      CgResult distributed;
      xmpi::Runtime::run(mini_config(1), [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = kind;
        options.n = n;
        options.seed = seed;
        options.max_iterations = 1;
        options.precond = precond;
        distributed = solve_pcg(comm, options);
      });
      EXPECT_EQ(distributed.iterations, 1);
      ASSERT_EQ(distributed.x.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(distributed.x[i], reference.x[i])
            << sparse::kind_token(kind) << ' ' << precond_token(precond)
            << " x[" << i << "]";
      }
    }
  }
}

TEST(CgEdge, MoreRanksThanRowsConvergesOnEveryPath) {
  // n < P leaves the high ranks without rows: empty chunks must post no
  // halo traffic, contribute zero partials and still participate in every
  // collective.
  const std::size_t n = 8;
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kStencil5, 3, n);
  const std::vector<double> b = linalg::generate_rhs(3, n);
  CgResult result;
  xmpi::Runtime::run(mini_config(12), [&](xmpi::Comm& comm) {
    CgOptions options;
    options.kind = SparseKind::kStencil5;
    options.n = n;
    options.seed = 3;
    const CgResult r = solve_pcg(comm, options);
    EXPECT_TRUE(r.converged);
    if (comm.rank() == 0) result = r;
  });
  ASSERT_EQ(result.x.size(), n);
  EXPECT_LT(sparse::scaled_residual(a, result.x, b), 1e-12);
}

TEST(CgEdge, BlockDiagAlignedChunksSendNoHaloMessages) {
  // blockdiag couples rows only inside 64-row diagonal blocks; with the
  // chunk size a multiple of 64 (n = 256 over 4 ranks -> chunk 64) every
  // partition boundary falls between blocks, the halo is empty, and the
  // halo's zero-message fast path must be exercised: no per-iteration halo
  // traffic at all.
  const std::size_t n = 256;
  CgResult result;
  const xmpi::RunResult run =
      xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = SparseKind::kBlockDiag;
        options.n = n;
        options.seed = 7;
        const CgResult r = solve_pcg(comm, options);
        EXPECT_TRUE(r.converged);
        if (comm.rank() == 0) result = r;
      });
  EXPECT_EQ(run.traffic.halo_messages, 0u);
  EXPECT_EQ(run.traffic.halo_bytes, 0u);
  // The collectives (and the final gather) still ran.
  EXPECT_GT(run.traffic.data_messages, 0u);

  // Contrast: the stencil couples across every partition boundary, so the
  // same shape reports per-iteration halo traffic — and the halo counters
  // are a strict subset of the data counters.
  const xmpi::RunResult coupled =
      xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
        CgOptions options;
        options.kind = SparseKind::kStencil5;
        options.n = n;
        options.seed = 7;
        const CgResult r = solve_pcg(comm, options);
        EXPECT_TRUE(r.converged);
      });
  EXPECT_GT(coupled.traffic.halo_messages, 0u);
  EXPECT_GT(coupled.traffic.halo_bytes, 0u);
  EXPECT_LT(coupled.traffic.halo_messages, coupled.traffic.data_messages);
  EXPECT_LT(coupled.traffic.halo_bytes, coupled.traffic.data_bytes);
}

TEST(CgMessages, SetupAndTeardownScaleWithNeighboursNotRanks) {
  // Non-halo data messages of one stencil5 solve: the halo-request
  // exchange, the collectives and the final gather. Requests go to halo
  // neighbours only and the solution is gathered to rank 0, so quadrupling
  // P (at a fixed 64 rows per rank) grows the count about 4x (4165 ->
  // 17585). An all-to-all request exchange grows as P^2 and takes the
  // total 7x (5390 -> 37750). Counts are deterministic at any worker
  // count, so the P = 144 figure is pinned.
  const auto non_halo_messages = [](int ranks) {
    const xmpi::RunResult run =
        xmpi::Runtime::run(mini_config(ranks), [&](xmpi::Comm& comm) {
          CgOptions options;
          options.kind = SparseKind::kStencil5;
          options.n = 64 * static_cast<std::size_t>(ranks);
          options.seed = 1;
          EXPECT_TRUE(solve_pcg(comm, options).converged);
        });
    return run.traffic.data_messages - run.traffic.halo_messages;
  };
  const std::uint64_t at36 = non_halo_messages(36);
  const std::uint64_t at144 = non_halo_messages(144);
  EXPECT_EQ(at144, 17585u);
  EXPECT_LT(at144, 5 * at36) << "P=36: " << at36 << ", P=144: " << at144;
}

TEST(CgPrecond, JacobiMatchesSequentialAndConvergesFused) {
  // kRandom has a genuinely varying diagonal, so the Jacobi preconditioner
  // is a real (non-scalar) transformation there.
  const std::size_t n = 150;
  const std::uint64_t seed = 17;
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kRandom, seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  const CgResult reference =
      solve_cg(a, b, 1e-11, 1000, CgPrecond::kJacobi);
  ASSERT_TRUE(reference.converged);
  EXPECT_LE(reference.relative_residual, 1e-11);

  CgResult distributed;
  xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
    CgOptions options;
    options.kind = SparseKind::kRandom;
    options.n = n;
    options.seed = seed;
    options.precond = CgPrecond::kJacobi;
    const CgResult r = solve_pcg(comm, options);
    EXPECT_TRUE(r.converged);
    if (comm.rank() == 0) distributed = r;
  });
  // The two extra preconditioned terms ride in the same fused round; the
  // recurrence may move termination by one iteration.
  EXPECT_LE(std::abs(distributed.iterations - reference.iterations), 1);
  ASSERT_EQ(distributed.x.size(), n);
  EXPECT_LT(sparse::scaled_residual(a, distributed.x, b), 1e-12);
}

TEST(CgSequential, ZeroRhsSolvesImmediately) {
  const sparse::CsrMatrix a =
      sparse::generate_matrix(SparseKind::kStencil5, 1, 32);
  const std::vector<double> b(32, 0.0);
  const CgResult result = solve_cg(a, b, 1e-11, 100);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  for (const double v : result.x) EXPECT_EQ(v, 0.0);
}

TEST(CgSequential, RejectsIndefiniteMatrix) {
  sparse::CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  a.values = {1.0, -1.0};  // indefinite diagonal
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW((void)solve_cg(a, b, 1e-11, 100), Error);
}

TEST(CgModel, IterationCountTracksExecutedCounts) {
  // The analytic model is the Chebyshev bound on the Gershgorin condition
  // estimate (dominance margin 1 keeps the spectrum inside [1, 2S + 1]).
  // The estimate uses the *representative* off-diagonal sum, so it tracks
  // rather than bounds the executed counts — assert a tight-enough band
  // for the replay tier's iters column to be meaningful.
  for (const SparseKind kind :
       {SparseKind::kStencil5, SparseKind::kStencil9, SparseKind::kStencil27,
        SparseKind::kBanded, SparseKind::kRandom}) {
    const int modeled = perfsim::cg_model_iters(kind, 1e-11);
    EXPECT_GE(modeled, 1);
    const sparse::CsrMatrix a = sparse::generate_matrix(kind, 5, 200);
    const std::vector<double> b = linalg::generate_rhs(5, 200);
    const CgResult run = solve_cg(a, b, 1e-11, 2000);
    ASSERT_TRUE(run.converged);
    EXPECT_LE(run.iterations, 3 * modeled) << sparse::kind_token(kind);
    EXPECT_GE(3 * run.iterations, modeled) << sparse::kind_token(kind);
  }
  // Looser tolerance => fewer modeled iterations.
  EXPECT_LT(perfsim::cg_model_iters(SparseKind::kStencil5, 1e-4),
            perfsim::cg_model_iters(SparseKind::kStencil5, 1e-11));
}

TEST(CgReplay, PredictionScalesWithSizeAndIsMemoryBound) {
  const hw::MachineSpec machine = hw::marconi_a3();
  const perfsim::Simulator simulator(machine);
  perfsim::Workload workload;
  workload.algorithm = perfsim::Algorithm::kCg;
  workload.matrix = SparseKind::kStencil5;

  const hw::Placement placement =
      hw::make_placement(16, hw::LoadLayout::kFullLoad, machine);
  workload.n = 100000;
  const perfsim::Prediction small = simulator.predict(workload, placement);
  workload.n = 400000;
  const perfsim::Prediction large = simulator.predict(workload, placement);
  EXPECT_GT(small.duration_s, 0.0);
  EXPECT_GT(large.duration_s, small.duration_s);
  EXPECT_GT(large.total_j(), small.total_j());
  // Memory-bound workload: DRAM draws a far larger share of the energy
  // than in the dense-solver predictions.
  EXPECT_GT(large.dram_j[0] + large.dram_j[1],
            0.05 * (large.pkg_j[0] + large.pkg_j[1]));
}

}  // namespace
}  // namespace plin::solvers
