// Tests for the energy ledger: power integration, clipping, DRAM traffic
// attribution, power caps, the idle-socket leakage artifact, and
// concurrent per-lane appends.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "support/error.hpp"

#include "hwmodel/power.hpp"
#include "trace/clock.hpp"
#include "trace/hardware_context.hpp"
#include "trace/ledger.hpp"

namespace plin::trace {
namespace {

hw::PowerModel model() { return hw::PowerModel(hw::PowerSpec{}); }

TEST(EnergyLedger, BaselineEnergyWithoutActivity) {
  EnergyLedger ledger(model(), {4, 4}, {4, 4});
  const hw::PowerSpec spec;
  const double expected =
      (spec.pkg_base_w + 4 * spec.core_idle_w) * 2.0;
  EXPECT_NEAR(ledger.package_energy_j(0, 2.0), expected, 1e-9);
  EXPECT_NEAR(ledger.package_energy_j(1, 2.0), expected, 1e-9);
  EXPECT_NEAR(ledger.dram_energy_j(0, 2.0), spec.dram_base_w * 2.0, 1e-9);
}

TEST(EnergyLedger, SegmentsAddDynamicPower) {
  EnergyLedger ledger(model(), {4, 4}, {4, 4});
  const hw::PowerSpec spec;
  ledger.record(0, ActivitySegment{0.0, 1.0, hw::ActivityKind::kCompute, 0});
  const double base = (spec.pkg_base_w + 4 * spec.core_idle_w) * 1.0;
  const double dynamic = spec.core_compute_w - spec.core_idle_w;
  EXPECT_NEAR(ledger.package_energy_j(0, 1.0), base + dynamic, 1e-9);
  EXPECT_NEAR(ledger.package_dynamic_j(0, 1.0), dynamic, 1e-9);
  // The other package is untouched (it has ranked cores, so no leakage).
  EXPECT_NEAR(ledger.package_energy_j(1, 1.0), base, 1e-9);
}

TEST(EnergyLedger, ActivityKindsHaveDistinctPower) {
  const hw::PowerModel pm = model();
  EXPECT_GT(pm.core_power_w(hw::ActivityKind::kCompute),
            pm.core_power_w(hw::ActivityKind::kMemBound));
  EXPECT_GT(pm.core_power_w(hw::ActivityKind::kMemBound),
            pm.core_power_w(hw::ActivityKind::kCommWait));
  EXPECT_GT(pm.core_power_w(hw::ActivityKind::kCommWait),
            pm.core_power_w(hw::ActivityKind::kIdle));
}

TEST(EnergyLedger, QueriesClipSegmentsAtQueryTime) {
  EnergyLedger ledger(model(), {2}, {2});
  ledger.record(0, ActivitySegment{1.0, 3.0, hw::ActivityKind::kCompute,
                                   /*dram_bytes=*/400.0});
  const hw::PowerSpec spec;
  const double dynamic_rate = spec.core_compute_w - spec.core_idle_w;
  // At t=2.0, half the segment has elapsed.
  EXPECT_NEAR(ledger.package_dynamic_j(0, 2.0), dynamic_rate * 1.0, 1e-9);
  EXPECT_NEAR(ledger.dram_traffic_bytes(0, 2.0), 200.0, 1e-9);
  // Before the segment: nothing.
  EXPECT_NEAR(ledger.package_dynamic_j(0, 0.5), 0.0, 1e-12);
  // After: the whole segment.
  EXPECT_NEAR(ledger.package_dynamic_j(0, 10.0), dynamic_rate * 2.0, 1e-9);
  EXPECT_NEAR(ledger.dram_traffic_bytes(0, 10.0), 400.0, 1e-9);
}

TEST(EnergyLedger, DramEnergyCombinesBaseAndTraffic) {
  EnergyLedger ledger(model(), {2}, {2});
  const hw::PowerSpec spec;
  ledger.record(0, ActivitySegment{0.0, 1.0, hw::ActivityKind::kMemBound,
                                   1e9});
  EXPECT_NEAR(ledger.dram_energy_j(0, 1.0),
              spec.dram_base_w + 1e9 * spec.dram_energy_per_byte_j, 1e-9);
}

TEST(EnergyLedger, IdleSocketLeakageMirrorsBusySibling) {
  // Package 1 has no ranked cores: it must show base power plus the
  // leakage fraction of package 0's dynamic energy (the paper's §5.3
  // observation).
  EnergyLedger ledger(model(), {4, 4}, {4, 0});
  const hw::PowerSpec spec;
  for (int core = 0; core < 4; ++core) {
    ledger.record(0, ActivitySegment{0.0, 1.0, hw::ActivityKind::kCompute, 0});
  }
  const double base = (spec.pkg_base_w + 4 * spec.core_idle_w) * 1.0;
  const double dynamic0 = 4 * (spec.core_compute_w - spec.core_idle_w);
  EXPECT_NEAR(ledger.package_energy_j(0, 1.0), base + dynamic0, 1e-9);
  EXPECT_NEAR(ledger.package_energy_j(1, 1.0),
              base + spec.idle_socket_leakage * dynamic0, 1e-9);
  // The idle package consumes meaningfully more than pure baseline but
  // less than the busy one.
  EXPECT_GT(ledger.package_energy_j(1, 1.0), base);
  EXPECT_LT(ledger.package_energy_j(1, 1.0),
            ledger.package_energy_j(0, 1.0));
}

TEST(EnergyLedger, PowerCapScalesDynamicEnergy) {
  EnergyLedger ledger(model(), {4}, {4});
  const hw::PowerSpec spec;
  for (int core = 0; core < 4; ++core) {
    ledger.record(0, ActivitySegment{0.0, 1.0, hw::ActivityKind::kCompute, 0});
  }
  const double uncapped = ledger.package_energy_j(0, 1.0);
  // Cap well below nominal: dynamic energy must shrink.
  ledger.set_package_cap(0, spec.pkg_base_w + 4.0);
  const double capped = ledger.package_energy_j(0, 1.0);
  EXPECT_LT(capped, uncapped);
  EXPECT_DOUBLE_EQ(ledger.package_cap(0), spec.pkg_base_w + 4.0);
  // Clearing restores.
  ledger.set_package_cap(0, 0.0);
  EXPECT_DOUBLE_EQ(ledger.package_energy_j(0, 1.0), uncapped);
}

TEST(EnergyLedger, InvalidArgumentsAreRejected) {
  EnergyLedger ledger(model(), {2}, {2});
  EXPECT_THROW(ledger.package_energy_j(1, 1.0), Error);
  EXPECT_THROW(ledger.package_energy_j(0, -1.0), Error);
  EXPECT_THROW(ledger.record(5, ActivitySegment{}), Error);
  EXPECT_THROW(ledger.set_package_cap(0, -5.0), Error);
}

TEST(EnergyLedger, LaneOutsideThePackageCoresIsRejected) {
  EnergyLedger ledger(model(), {2, 3}, {2, 3});
  const ActivitySegment seg{0.0, 1.0, hw::ActivityKind::kCompute, 0};
  EXPECT_THROW(ledger.record(0, seg, 2), InvalidArgument);
  EXPECT_THROW(ledger.record(0, seg, -1), InvalidArgument);
  EXPECT_THROW(ledger.record(1, seg, 3), InvalidArgument);
  EXPECT_NO_THROW(ledger.record(1, seg, 2));
}

/// The i-th segment lane `lane` appends: uneven lengths, kinds and
/// traffic, so a different summation order would change the low bits.
ActivitySegment lane_segment(int lane, int i) {
  const double t0 = 1.0e-4 * i + 1.0e-7 * lane;
  const double length = 1.0e-5 * (1 + (i * 7 + lane * 3) % 11) / 3.0;
  const auto kind = static_cast<hw::ActivityKind>((i + lane) % 4);
  return ActivitySegment{t0, t0 + length, kind, 97.0 * ((i * lane) % 13)};
}

TEST(EnergyLedger, ConcurrentLaneAppendsSumLikeASerialRecording) {
  constexpr int kLanes = 8;
  constexpr int kSegments = 4000;
  constexpr double kEnd = 1.0e-4 * kSegments;
  EnergyLedger concurrent(model(), {kLanes, kLanes}, {kLanes, 0});
  EnergyLedger serial(model(), {kLanes, kLanes}, {kLanes, 0});

  // Serial recording, lanes in reverse order: lane order, not append
  // order across lanes, fixes the result.
  for (int lane = kLanes - 1; lane >= 0; --lane) {
    for (int i = 0; i < kSegments; ++i) {
      serial.record(0, lane_segment(lane, i), lane);
    }
  }

  std::atomic<bool> done{false};
  std::thread reader([&] {
    double last = 0.0;
    while (!done.load()) {
      const double now = concurrent.package_energy_j(0, kEnd);
      EXPECT_GE(now, last);
      last = now;
      (void)concurrent.dram_energy_j(1, kEnd);
      (void)concurrent.package_cap(0);
    }
  });
  std::vector<std::thread> appenders;
  for (int lane = 0; lane < kLanes; ++lane) {
    appenders.emplace_back([&, lane] {
      for (int i = 0; i < kSegments; ++i) {
        concurrent.record(0, lane_segment(lane, i), lane);
      }
    });
  }
  for (std::thread& appender : appenders) appender.join();
  done.store(true);
  reader.join();

  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(concurrent.package_energy_j(p, kEnd),
              serial.package_energy_j(p, kEnd));
    EXPECT_EQ(concurrent.dram_energy_j(p, kEnd), serial.dram_energy_j(p, kEnd));
  }
  EXPECT_EQ(concurrent.package_energy_j(0, kEnd / 3),
            serial.package_energy_j(0, kEnd / 3));
  EXPECT_GT(concurrent.package_dynamic_j(0, kEnd), 0.0);
}

TEST(PowerModelTest, CapEffectFollowsCubeRootLaw) {
  const hw::PowerModel pm = model();
  const hw::PowerSpec spec;
  // No cap, or generous cap: unchanged.
  EXPECT_DOUBLE_EQ(pm.cap_effect(0.0, 24).speed_factor, 1.0);
  EXPECT_DOUBLE_EQ(pm.cap_effect(1e6, 24).speed_factor, 1.0);
  // Tight cap: speed = cbrt(budget / nominal), power scale = ratio.
  const double nominal = 24 * spec.core_compute_w;
  const double cap = spec.pkg_base_w + nominal / 8.0;
  const auto effect = pm.cap_effect(cap, 24);
  EXPECT_NEAR(effect.speed_factor, 0.5, 1e-12);
  EXPECT_NEAR(effect.dynamic_scale, 0.125, 1e-12);
  // Throughput never drops below the floor.
  EXPECT_GE(pm.cap_effect(spec.pkg_base_w + 0.001, 24).speed_factor, 0.29);
}

TEST(HardwareContextTest, ThreadBindingIsScoped) {
  EXPECT_EQ(thread_hardware(), nullptr);
  VirtualClock clock;
  EnergyLedger ledger(model(), {2}, {2});
  HardwareContext context{&ledger, &clock, 3};
  {
    ScopedHardwareBinding binding(&context);
    ASSERT_EQ(thread_hardware(), &context);
    EXPECT_EQ(thread_hardware()->node, 3);
  }
  EXPECT_EQ(thread_hardware(), nullptr);
}

TEST(VirtualClockTest, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.advance_to(1.0);  // past: no-op
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.advance_to(2.0);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

}  // namespace
}  // namespace plin::trace
