// Scale-oriented xmpi tests behind the 100k-rank work (bench_scale):
//
//   * the binary-blocks scalable allreduce schedules are bit-identical to
//     the seed tree at *non-power-of-two* rank counts — including the NaN
//     propagation and maxloc tie contracts — across the reduce-scatter+
//     allgather and recursive-doubling paths;
//   * the Bruck allgather (picked above 128 ranks) produces the same bytes
//     as the tree schedule;
//   * under the scalable schedules each rank talks to O(log P) peers;
//   * the StackPool recycles released stacks instead of mapping new ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "hwmodel/placement.hpp"
#include "prof/recorder.hpp"
#include "xmpi/runtime.hpp"
#include "xmpi/stackpool.hpp"

namespace plin::xmpi {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Like the mini_config of xmpi_collectives_test, but sized to hold the
/// larger rank counts exercised here (fully loaded 2x4-core nodes).
RunConfig scale_config(int ranks, CollectiveMode mode) {
  constexpr int kCoresPerSocket = 4;
  const int nodes = (ranks + 2 * kCoresPerSocket - 1) / (2 * kCoresPerSocket);
  RunConfig config;
  config.machine = hw::mini_cluster(std::max(nodes, 2), kCoresPerSocket);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  config.transport.collectives = mode;
  return config;
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

/// Rank r contributes `base` rotated by r plus a rank-dependent epsilon, so
/// every rank's vector is distinct and any NaN in base visits every slot.
std::vector<double> run_allreduce(int ranks, CollectiveMode mode,
                                  const std::vector<double>& base,
                                  ReduceOp op) {
  const std::size_t count = base.size();
  std::vector<double> result;
  Runtime::run(scale_config(ranks, mode), [&](Comm& comm) {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) {
      mine[i] = base[(i + static_cast<std::size_t>(comm.rank())) % count] +
                comm.rank() * 1e-6;
    }
    std::vector<double> out(count);
    comm.allreduce(std::span<const double>(mine), std::span<double>(out), op);
    if (comm.rank() == 0) result = out;
  });
  return result;
}

// ---- non-power-of-two bit-identity -----------------------------------------

TEST(ScalableScaleTest, AllreduceNonPof2BitIdenticalToTree) {
  // P = 3 (two blocks 2+1), 6 (4+2), 12 (8+4), 100 (64+32+4): every
  // non-trivial binary-blocks shape up to three blocks, on both scalable
  // paths — count 130 >= largest block takes reduce-scatter+allgather,
  // count 3 takes recursive doubling — for all three ops, with a NaN in
  // the pool of contributed values (slot 13 of the long vector, slot 1 of
  // the short one) so the asymmetric combine contract is exercised too.
  std::vector<double> long_base(130);
  for (std::size_t i = 0; i < long_base.size(); ++i) {
    long_base[i] = std::sin(static_cast<double>(i) * 0.7) * 1e3;
  }
  long_base[13] = kNaN;
  const std::vector<double> short_base = {2.5, kNaN, -7.0};
  for (const int ranks : {3, 6, 12, 100}) {
    for (const ReduceOp op :
         {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
      expect_bits_equal(
          run_allreduce(ranks, CollectiveMode::kTree, long_base, op),
          run_allreduce(ranks, CollectiveMode::kScalable, long_base, op));
      expect_bits_equal(
          run_allreduce(ranks, CollectiveMode::kTree, short_base, op),
          run_allreduce(ranks, CollectiveMode::kScalable, short_base, op));
    }
  }
}

TEST(ScalableScaleTest, AllreducePaperScale1296BitIdenticalToTree) {
  // The paper's largest campaign rank count: 1296 = 1024 + 256 + 16
  // blocks. One kSum sweep per scalable path keeps the test under a few
  // seconds while pinning bit-identity at a scale the small cases above
  // cannot represent.
  std::vector<double> rsag_base(1030);
  for (std::size_t i = 0; i < rsag_base.size(); ++i) {
    rsag_base[i] = std::cos(static_cast<double>(i) * 0.3) * 41.0;
  }
  expect_bits_equal(
      run_allreduce(1296, CollectiveMode::kTree, rsag_base, ReduceOp::kSum),
      run_allreduce(1296, CollectiveMode::kScalable, rsag_base,
                    ReduceOp::kSum));

  const std::vector<double> rd_base(64, 1.0 / 3.0);
  expect_bits_equal(
      run_allreduce(1296, CollectiveMode::kTree, rd_base, ReduceOp::kSum),
      run_allreduce(1296, CollectiveMode::kScalable, rd_base,
                    ReduceOp::kSum));
}

TEST(ScalableScaleTest, MaxlocContractHoldsAtNonPof2Sizes) {
  // Maxloc rides on the same schedules; its total order (numeric beats
  // NaN, ties take the lowest index) must hold at binary-blocks sizes.
  for (const int ranks : {6, 12, 100}) {
    for (const CollectiveMode mode :
         {CollectiveMode::kTree, CollectiveMode::kScalable}) {
      Comm::MaxLoc tie;
      Comm::MaxLoc nan_loses;
      Runtime::run(scale_config(ranks, mode), [&](Comm& comm) {
        const Comm::MaxLoc t = comm.allreduce_maxloc(4.25, comm.rank());
        const Comm::MaxLoc n = comm.allreduce_maxloc(
            comm.rank() == 2 ? kNaN : 1.0, comm.rank());
        if (comm.rank() == 0) {
          tie = t;
          nan_loses = n;
        }
      });
      EXPECT_EQ(tie.value, 4.25);
      EXPECT_EQ(tie.index, 0);
      EXPECT_EQ(nan_loses.value, 1.0);
      EXPECT_NE(nan_loses.index, 2);
    }
  }
}

TEST(ScalableScaleTest, BruckAllgatherMatchesTreeAbove128Ranks) {
  // 200 ranks crosses kRingAllgatherMaxRanks, so the scalable mode takes
  // the Bruck schedule; allgather is pure concatenation, so the bytes must
  // equal the tree schedule's.
  constexpr int kRanks = 200;
  constexpr std::size_t kChunk = 3;
  std::vector<double> tree_out;
  std::vector<double> bruck_out;
  for (const CollectiveMode mode :
       {CollectiveMode::kTree, CollectiveMode::kScalable}) {
    Runtime::run(scale_config(kRanks, mode), [&](Comm& comm) {
      std::vector<double> mine(kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) {
        mine[i] = comm.rank() * 10.0 + static_cast<double>(i);
      }
      std::vector<double> all(kChunk * static_cast<std::size_t>(comm.size()));
      comm.allgather(std::span<const double>(mine), std::span<double>(all));
      if (comm.rank() == comm.size() - 1) {
        (mode == CollectiveMode::kTree ? tree_out : bruck_out) = all;
      }
    });
  }
  ASSERT_EQ(tree_out.size(), kChunk * kRanks);
  expect_bits_equal(tree_out, bruck_out);
}

// ---- per-peer fan-out -------------------------------------------------------

TEST(PeerCountersTest, ScalableSchedulesKeepPeerMapsLogarithmic) {
  // The O(log P)-peers property of the scalable schedules: no rank talks
  // to more than a few dozen peers even at hundreds of ranks (the tree
  // schedules funnel O(P) peers into root). The traced run's exact
  // per-peer counters (prof's communication matrix) show it.
  if (!prof::kCompiledIn) GTEST_SKIP() << "built with -DPLIN_PROF=OFF";
  RunConfig config = scale_config(200, CollectiveMode::kScalable);
  config.trace = true;
  const RunResult run = Runtime::run(config, [](Comm& comm) {
    std::vector<double> data(8, 1.0);
    std::vector<double> out(8);
    comm.allreduce(std::span<const double>(data), std::span<double>(out),
                   ReduceOp::kSum);
    comm.barrier();
  });
  ASSERT_NE(run.trace, nullptr);
  ASSERT_EQ(run.trace->ranks.size(), 200u);
  std::size_t peers_max = 0;
  for (const prof::RankTrace& rank : run.trace->ranks) {
    peers_max = std::max(peers_max, rank.peers.size());
  }
  EXPECT_GT(peers_max, 0u);
  EXPECT_LE(peers_max, 48u);  // ~2 rounds of log2(200) + slack
}

// ---- stack pool ------------------------------------------------------------

TEST(StackPoolTest, ReleasedStacksAreReused) {
  StackPool& pool = StackPool::instance();
  // Unusual geometry so this test's bucket is not shared with the
  // schedulers of other tests in this binary.
  constexpr std::size_t kBytes = 192 * 1024;
  const StackPool::Stats before = pool.stats();
  StackPool::Allocation first = pool.acquire(kBytes, /*guarded=*/true);
  ASSERT_TRUE(first.valid());
  unsigned char* const sp = first.sp;
  first.sp[0] = 0x5a;  // stacks are writable immediately
  first.sp[first.bytes - 1] = 0xa5;
  pool.release(first);
  EXPECT_FALSE(first.valid());

  StackPool::Allocation second = pool.acquire(kBytes, /*guarded=*/true);
  EXPECT_EQ(second.sp, sp);  // served from the free list, not a new slot
  const StackPool::Stats after = pool.stats();
  EXPECT_EQ(after.served, before.served + 2);
  EXPECT_EQ(after.reuse_hits, before.reuse_hits + 1);
  EXPECT_GE(after.peak_live, before.live + 1);
  pool.release(second);
  EXPECT_EQ(pool.stats().live, before.live);
}

}  // namespace
}  // namespace plin::xmpi
