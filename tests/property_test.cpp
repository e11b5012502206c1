// Property-style sweeps across the stack: solver equivalence over many
// seeds, block-size invariance, collective correctness over shapes,
// distribution-map round trips and accounting invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "hwmodel/placement.hpp"
#include "linalg/blockcyclic.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/gepp/sequential.hpp"
#include "solvers/ime/sequential.hpp"
#include "support/rng.hpp"
#include "xmpi/runtime.hpp"

namespace plin {
namespace {

xmpi::RunConfig mini_config(int ranks) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(16, 4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

// ---- all solvers agree, across seeds ---------------------------------------

class SolverAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverAgreement, AllFourSolversProduceTheSameSolution) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 64;
  const linalg::Matrix a = linalg::generate_system_matrix(seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);

  const std::vector<double> gepp = solvers::solve_gepp(a, b);
  const std::vector<double> ime = solvers::solve_ime(a, b);
  const std::vector<double> ime_blocked = solvers::solve_ime_blocked(a, b, 16);
  linalg::Matrix lu = a;
  std::vector<std::size_t> pivots;
  solvers::lu_factor_blocked(lu, pivots, /*nb=*/16);
  const std::vector<double> gepp_blocked = solvers::lu_solve(lu, pivots, b);

  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::fabs(gepp[i]) + 1.0;
    EXPECT_NEAR(ime[i], gepp[i], 1e-11 * scale) << "seed " << seed;
    EXPECT_NEAR(ime_blocked[i], gepp[i], 1e-11 * scale) << "seed " << seed;
    EXPECT_NEAR(gepp_blocked[i], gepp[i], 1e-11 * scale) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---- backward stability: scaled residuals stay O(eps) ----------------------

class SolverResidual : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverResidual, ScaledResidualIsMachinePrecisionSmall) {
  // ||Ax - b||_inf / (||A||_inf ||x||_inf n) stays within a small multiple
  // of machine epsilon for the direct solvers, across problem sizes that
  // cross the kernel engine's cache/register block boundaries. This guards
  // the blocked GEMM/TRSM rewiring: a wrong edge tile or beta application
  // would blow the residual far past eps even if it looks "close".
  const std::uint64_t seed = GetParam();
  constexpr double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t n : {33UL, 96UL, 130UL}) {
    const linalg::Matrix a = linalg::generate_system_matrix(seed, n);
    const std::vector<double> b = linalg::generate_rhs(seed, n);

    const std::vector<double> gepp = solvers::solve_gepp(a, b);
    EXPECT_LE(linalg::scaled_residual(a.view(), gepp, b), 64.0 * eps)
        << "gepp seed=" << seed << " n=" << n;

    const std::vector<double> ime = solvers::solve_ime_blocked(a, b, 32);
    EXPECT_LE(linalg::scaled_residual(a.view(), ime, b), 64.0 * eps)
        << "ime seed=" << seed << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverResidual, ::testing::Values(7, 42, 99));

// ---- pdgesv is invariant in the block size ---------------------------------

class BlockSizeInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockSizeInvariance, PdgesvSolutionIndependentOfNb) {
  const std::size_t nb = GetParam();
  const std::size_t n = 48;
  const std::uint64_t seed = 91;
  const linalg::Matrix a = linalg::generate_system_matrix(seed, n);
  const std::vector<double> b = linalg::generate_rhs(seed, n);
  const std::vector<double> reference = solvers::solve_gepp(a, b);

  xmpi::Runtime::run(mini_config(4), [&](xmpi::Comm& comm) {
    solvers::PdgesvOptions options;
    options.n = n;
    options.seed = seed;
    options.nb = nb;
    const solvers::PdgesvResult result = solve_pdgesv(comm, options);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(result.x[i], reference[i],
                  1e-10 * (std::fabs(reference[i]) + 1.0))
          << "nb " << nb;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizeInvariance,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 48, 64));

// ---- collectives against serial references over shapes ---------------------

class CollectiveShapes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveShapes, ReduceMatchesSerialSum) {
  const int ranks = GetParam();
  xmpi::Runtime::run(mini_config(ranks), [&](xmpi::Comm& comm) {
    Rng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<double> data(17);
    for (double& v : data) v = rng.uniform(-1.0, 1.0);
    std::vector<double> out(17, 0.0);
    comm.allreduce(std::span<const double>(data), std::span<double>(out),
                   xmpi::ReduceOp::kSum);
    // Serial reference: regenerate every rank's contribution.
    for (std::size_t i = 0; i < out.size(); ++i) {
      double expected = 0.0;
      for (int r = 0; r < ranks; ++r) {
        Rng ref(1000 + static_cast<std::uint64_t>(r));
        double value = 0.0;
        for (std::size_t k = 0; k <= i; ++k) value = ref.uniform(-1.0, 1.0);
        expected += value;
      }
      EXPECT_NEAR(out[i], expected, 1e-9);
    }
  });
}

TEST_P(CollectiveShapes, BcastFromLastRank) {
  const int ranks = GetParam();
  xmpi::Runtime::run(mini_config(ranks), [&](xmpi::Comm& comm) {
    std::vector<int> data(5, comm.rank() == comm.size() - 1 ? 77 : 0);
    comm.bcast(std::span<int>(data), comm.size() - 1);
    for (int v : data) EXPECT_EQ(v, 77);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveShapes,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 12, 16, 24));

// ---- block-cyclic maps, randomized descriptors ------------------------------

TEST(BlockCyclicProperty, RandomDescriptorsRoundTrip) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 1 + rng.next_below(200);
    const std::size_t mb = 1 + rng.next_below(16);
    const int prows = 1 + static_cast<int>(rng.next_below(6));
    const linalg::BlockCyclicDesc desc{
        m, m, mb, mb, linalg::ProcessGrid{prows, 1}};
    std::size_t covered = 0;
    for (int p = 0; p < prows; ++p) covered += desc.local_rows(p);
    ASSERT_EQ(covered, m) << "trial " << trial;
    for (std::size_t g = 0; g < m; g += 1 + g / 7) {
      const int owner = desc.owner_prow(g);
      EXPECT_EQ(desc.global_row(desc.local_row(g), owner), g);
    }
  }
}

// ---- traffic accounting conservation ---------------------------------------

TEST(TrafficProperty, DataBytesMatchPayloadsExactly) {
  Rng rng(7);
  std::vector<std::size_t> sizes(20);
  std::size_t expected_bytes = 0;
  for (auto& s : sizes) {
    s = 1 + rng.next_below(300);
    expected_bytes += s * sizeof(double);
  }
  const xmpi::RunResult result =
      xmpi::Runtime::run(mini_config(2), [&](xmpi::Comm& comm) {
        for (std::size_t s : sizes) {
          std::vector<double> buffer(s, 1.0);
          if (comm.rank() == 0) {
            comm.send(std::span<const double>(buffer), 1, 0);
          } else {
            comm.recv(std::span<double>(buffer), 0, 0);
          }
        }
      });
  EXPECT_EQ(result.traffic.data_messages, sizes.size());
  EXPECT_EQ(result.traffic.data_bytes, expected_bytes);
}

// ---- energy accounting invariants -------------------------------------------

TEST(EnergyProperty, EnergyIsMonotonicInTime) {
  const xmpi::RunConfig config = mini_config(8);
  std::vector<double> energies;
  for (const double flops : {1e7, 5e7, 2e8, 1e9}) {
    const xmpi::RunResult r =
        xmpi::Runtime::run(config, [flops](xmpi::Comm& comm) {
          comm.compute(xmpi::ComputeCost{flops, 0.0, 1.0});
        });
    energies.push_back(r.energy.total_j());
  }
  for (std::size_t i = 1; i < energies.size(); ++i) {
    EXPECT_GT(energies[i], energies[i - 1]);
  }
}

TEST(EnergyProperty, PowerIsBoundedByTheMachineEnvelope) {
  // No run can draw more than base + all cores at compute power + DRAM
  // base and traffic; check against a generous per-node ceiling.
  const xmpi::RunConfig config = mini_config(8);
  const xmpi::RunResult r = xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
    comm.compute(xmpi::ComputeCost{1e9, 1e7, 0.9});
    comm.barrier();
  });
  const hw::PowerSpec& power = config.machine.power;
  const double ceiling_per_node =
      2 * (power.pkg_base_w + 4 * power.core_compute_w) +
      2 * power.dram_base_w + 50.0;
  const double avg_power = r.energy.total_j() / r.duration_s;
  EXPECT_LT(avg_power, 1.0 * ceiling_per_node);  // single node in use
  EXPECT_GT(avg_power, 2 * power.pkg_base_w);    // at least the base draw
}

// ---- perfsim determinism ------------------------------------------------------

TEST(PerfsimProperty, PredictionsAreDeterministic) {
  const hw::MachineSpec machine = hw::marconi_a3();
  const perfsim::Simulator simulator(machine);
  const hw::Placement placement =
      hw::make_placement(576, hw::LoadLayout::kFullLoad, machine);
  for (perfsim::Algorithm a :
       {perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack}) {
    const auto p1 = simulator.predict({a, 17280, 64}, placement);
    const auto p2 = simulator.predict({a, 17280, 64}, placement);
    EXPECT_DOUBLE_EQ(p1.duration_s, p2.duration_s);
    EXPECT_DOUBLE_EQ(p1.total_j(), p2.total_j());
  }
}

}  // namespace
}  // namespace plin
