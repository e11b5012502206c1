// Tests for the mixed-precision solver (gepp_mixed): fp64-grade accuracy
// out of fp32 factors + refinement, deterministic fallback on systems fp32
// cannot carry, and bit-identical results across host configurations (the
// executor, worker count and transport mode must never leak into simulated
// numerics).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "hwmodel/placement.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "solvers/gepp/mixed.hpp"
#include "solvers/gepp/sequential.hpp"
#include "xmpi/runtime.hpp"

namespace plin::solvers {
namespace {

xmpi::RunConfig mini_config(
    int ranks, xmpi::CollectiveMode collectives = xmpi::CollectiveMode::kTree,
    xmpi::ExecutorKind executor = xmpi::ExecutorKind::kAuto,
    std::size_t workers = 0, xmpi::PoolMode pool = xmpi::PoolMode::kAuto) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/32, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  config.executor = executor;
  config.workers = workers;
  config.transport.collectives = collectives;
  config.transport.pool = pool;
  return config;
}

struct MixedRun {
  std::vector<double> x;
  int iters = -1;
  bool fell_back = false;
  double residual_norm = 0.0;
};

MixedRun run_mixed(const xmpi::RunConfig& config,
                   const GeppMixedOptions& options) {
  MixedRun out;
  xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
    const GeppMixedResult result = solve_gepp_mixed(comm, options);
    EXPECT_EQ(result.x.size(), options.n);
    if (comm.rank() == 0) {
      out.x = result.x;
      out.iters = result.iters;
      out.fell_back = result.fell_back;
      out.residual_norm = result.residual_norm;
    }
  });
  return out;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// No padding: gtest names each case by the bytes of its parameter.
struct MixedCase {
  std::size_t n;
  std::size_t ranks;
};
static_assert(std::has_unique_object_representations_v<MixedCase>);

class GeppMixedParam : public ::testing::TestWithParam<MixedCase> {};

TEST_P(GeppMixedParam, RefinesToFp64Accuracy) {
  const auto [n, ranks] = GetParam();
  const std::uint64_t seed = 21;

  const linalg::Matrix a = linalg::generate_system_matrix(seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  const std::vector<double> x_ref = solve_gepp(a, b);

  GeppMixedOptions options;
  options.n = n;
  options.seed = seed;
  options.nb = 8;
  const MixedRun run = run_mixed(mini_config(ranks), options);

  ASSERT_EQ(run.x.size(), n);
  EXPECT_FALSE(run.fell_back);
  EXPECT_GE(run.iters, 0);
  EXPECT_LE(run.iters, 5);  // well-conditioned: a couple of sweeps at most
  // The whole point: accuracy indistinguishable from the fp64 solver.
  EXPECT_LT(linalg::scaled_residual(a.view(), run.x, b), 1e-13);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(run.x[i], x_ref[i], 1e-9 * (std::fabs(x_ref[i]) + 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GeppMixedParam,
    ::testing::Values(MixedCase{24, 1}, MixedCase{24, 2}, MixedCase{32, 4},
                      MixedCase{64, 8}, MixedCase{96, 16},
                      MixedCase{33, 4},  // n not a multiple of nb
                      MixedCase{17, 3}   // ragged everything
                      ));

TEST(GeppMixedTest, LargerSystemsNeedRefinementSweeps) {
  // fp32 factors alone leave ~1e-7 relative error; the fp64 target is
  // ~1e-13, so at n = 96 at least one sweep must run (if this starts
  // passing with 0 the tolerance plumbing is broken).
  GeppMixedOptions options;
  options.n = 96;
  options.seed = 21;
  options.nb = 8;
  const MixedRun run = run_mixed(mini_config(8), options);
  EXPECT_FALSE(run.fell_back);
  EXPECT_GE(run.iters, 1);
}

TEST(GeppMixedTest, BitIdenticalAcrossHostConfigurations) {
  // Same virtual topology (4 ranks), every host-side knob varied: the
  // solution vector, sweep count, fallback flag and reported residual must
  // be bit-identical. This is the xmpi determinism contract extended to
  // the two-precision solver.
  GeppMixedOptions options;
  options.n = 64;
  options.seed = 33;
  options.nb = 8;

  const MixedRun base = run_mixed(mini_config(4), options);
  ASSERT_EQ(base.x.size(), options.n);
  EXPECT_FALSE(base.fell_back);

  const xmpi::RunConfig variants[] = {
      mini_config(4, xmpi::CollectiveMode::kScalable),
      mini_config(4, xmpi::CollectiveMode::kTree,
                  xmpi::ExecutorKind::kThreadPerRank),
      mini_config(4, xmpi::CollectiveMode::kTree,
                  xmpi::ExecutorKind::kWorkerPool, /*workers=*/1),
      mini_config(4, xmpi::CollectiveMode::kTree,
                  xmpi::ExecutorKind::kWorkerPool, /*workers=*/3),
      mini_config(4, xmpi::CollectiveMode::kScalable,
                  xmpi::ExecutorKind::kWorkerPool, /*workers=*/2,
                  xmpi::PoolMode::kOff),
  };
  for (const xmpi::RunConfig& config : variants) {
    const MixedRun other = run_mixed(config, options);
    EXPECT_TRUE(bitwise_equal(base.x, other.x));
    EXPECT_EQ(base.iters, other.iters);
    EXPECT_EQ(base.fell_back, other.fell_back);
    EXPECT_EQ(std::memcmp(&base.residual_norm, &other.residual_norm,
                          sizeof(double)),
              0);
  }
}

TEST(GeppMixedTest, UnderflowedSystemFallsBackBeforeRefining) {
  // Entries at 1e-46 flush to exactly zero in fp32: the very first pivot
  // search sees a dead column and every rank takes the fp64 path without
  // a single refinement sweep. The fp64 factorization handles the scaling
  // fine and the answer is still fully accurate.
  const std::size_t n = 48;
  const std::uint64_t seed = 21;
  const double scale = 1e-46;

  GeppMixedOptions options;
  options.n = n;
  options.seed = seed;
  options.nb = 8;
  options.entry_scale = scale;
  const MixedRun run = run_mixed(mini_config(4), options);

  EXPECT_TRUE(run.fell_back);
  EXPECT_EQ(run.iters, 0);

  linalg::Matrix a = linalg::generate_system_matrix(seed, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) *= scale;
  }
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  EXPECT_LT(linalg::scaled_residual(a.view(), run.x, b), 1e-12);
}

TEST(GeppMixedTest, OverflowedSystemFallsBackViaStagnation) {
  // Entries near 1e38 survive the fp32 narrowing but blow up inside the
  // factorization (the diagonal alone is ~2n x the entry scale, past
  // FLT_MAX), so the fp32 "solution" is garbage, the residual never
  // halves, and the stagnation detector routes to fp64.
  const std::size_t n = 32;
  const std::uint64_t seed = 21;
  const double scale = 1e38;

  GeppMixedOptions options;
  options.n = n;
  options.seed = seed;
  options.nb = 8;
  options.entry_scale = scale;
  const MixedRun run = run_mixed(mini_config(4), options);

  EXPECT_TRUE(run.fell_back);

  linalg::Matrix a = linalg::generate_system_matrix(seed, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) *= scale;
  }
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  EXPECT_LT(linalg::scaled_residual(a.view(), run.x, b), 1e-12);
}

TEST(GeppMixedTest, FallbackDecisionIsBitIdenticalAcrossHosts) {
  // The fallback is driven by replicated values only, so it must fire
  // identically however the host runs the simulation.
  GeppMixedOptions options;
  options.n = 48;
  options.seed = 21;
  options.nb = 8;
  options.entry_scale = 1e-46;

  const MixedRun base = run_mixed(mini_config(4), options);
  EXPECT_TRUE(base.fell_back);

  const xmpi::RunConfig variants[] = {
      mini_config(4, xmpi::CollectiveMode::kScalable),
      mini_config(4, xmpi::CollectiveMode::kTree,
                  xmpi::ExecutorKind::kThreadPerRank),
      mini_config(4, xmpi::CollectiveMode::kTree,
                  xmpi::ExecutorKind::kWorkerPool, /*workers=*/2),
  };
  for (const xmpi::RunConfig& config : variants) {
    const MixedRun other = run_mixed(config, options);
    EXPECT_EQ(base.fell_back, other.fell_back);
    EXPECT_EQ(base.iters, other.iters);
    EXPECT_TRUE(bitwise_equal(base.x, other.x));
  }
}

}  // namespace
}  // namespace plin::solvers
