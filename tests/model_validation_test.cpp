// Consistency between the two fidelity tiers (DESIGN.md §2): for
// configurations small enough to execute, perfsim's analytic prediction
// must track the virtual-time result of actually running the solver on
// xmpi. This is the license to use perfsim at paper scale.
#include <gtest/gtest.h>

#include <cmath>

#include "hwmodel/placement.hpp"
#include "perfsim/simulator.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "support/units.hpp"
#include "xmpi/runtime.hpp"

namespace plin::perfsim {
namespace {

struct TierCase {
  std::size_t n;
  int ranks;
  hw::LoadLayout layout;
};

xmpi::RunConfig config_for(const TierCase& c) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/32, /*cores_per_socket=*/4);
  config.placement = hw::make_placement(c.ranks, c.layout, config.machine);
  return config;
}

class TierConsistency : public ::testing::TestWithParam<TierCase> {};

TEST_P(TierConsistency, ImeDurationAndEnergyMatchExecution) {
  const TierCase c = GetParam();
  const xmpi::RunConfig config = config_for(c);

  const xmpi::RunResult executed =
      xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
        solvers::ImepOptions options;
        options.n = c.n;
        options.seed = 7;
        options.broadcast_solution = true;
        (void)solve_imep(comm, options);
      });

  const Simulator simulator(config.machine);
  const Prediction predicted =
      simulator.predict(Workload{Algorithm::kIme, c.n, 0}, config.placement);

  EXPECT_LT(rel_diff(predicted.duration_s, executed.duration_s), 0.40)
      << "duration: predicted " << predicted.duration_s << " executed "
      << executed.duration_s;
  EXPECT_LT(rel_diff(predicted.total_j(), executed.energy.total_j()), 0.40)
      << "energy: predicted " << predicted.total_j() << " executed "
      << executed.energy.total_j();
}

TEST_P(TierConsistency, ScalapackDurationAndEnergyMatchExecution) {
  const TierCase c = GetParam();
  const xmpi::RunConfig config = config_for(c);
  const std::size_t nb = 16;

  const xmpi::RunResult executed =
      xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
        solvers::PdgesvOptions options;
        options.n = c.n;
        options.seed = 7;
        options.nb = nb;
        (void)solve_pdgesv(comm, options);
      });

  const Simulator simulator(config.machine);
  const Prediction predicted = simulator.predict(
      Workload{Algorithm::kScalapack, c.n, nb}, config.placement);

  EXPECT_LT(rel_diff(predicted.duration_s, executed.duration_s), 0.40)
      << "duration: predicted " << predicted.duration_s << " executed "
      << executed.duration_s;
  EXPECT_LT(rel_diff(predicted.total_j(), executed.energy.total_j()), 0.40)
      << "energy: predicted " << predicted.total_j() << " executed "
      << executed.energy.total_j();
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, TierConsistency,
    ::testing::Values(TierCase{128, 4, hw::LoadLayout::kFullLoad},
                      TierCase{256, 8, hw::LoadLayout::kFullLoad},
                      TierCase{256, 8, hw::LoadLayout::kHalfLoadOneSocket},
                      TierCase{256, 8, hw::LoadLayout::kHalfLoadTwoSockets},
                      TierCase{384, 16, hw::LoadLayout::kFullLoad},
                      TierCase{512, 16, hw::LoadLayout::kFullLoad}),
    [](const ::testing::TestParamInfo<TierCase>& info) {
      return std::string("n") + std::to_string(info.param.n) + "_r" +
             std::to_string(info.param.ranks) + "_" +
             std::string(hw::to_string(info.param.layout) ==
                                 std::string("full-load")
                             ? "full"
                             : (std::string(hw::to_string(info.param.layout)) ==
                                        "half-load-1socket"
                                    ? "half1"
                                    : "half2"));
    });

}  // namespace
}  // namespace plin::perfsim
