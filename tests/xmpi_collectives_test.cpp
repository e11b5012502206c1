// Tests for the xmpi message transport (payload pool, zero-copy rendezvous
// delivery) and the collective schedule families (seed tree vs scalable).
//
// The load-bearing contracts:
//   * simulated outputs (durations, energy, solver results) are
//     bit-identical across worker counts — the transport (pool and
//     rendezvous delivery) is host-side only;
//   * the scalable schedules are bit-identical to the tree schedules for
//     power-of-two rank counts (rank-order-preserving combine), and for
//     kMax/kMin at any rank count; non-power-of-two kSum is deterministic
//     but may differ from the tree by FP reassociation;
//   * NaN/tie-break semantics of reduce and allreduce_maxloc are pinned
//     (like the PR-1 idamax contract) so both schedule families agree.
//
// This suite runs under TSan in CI: the concurrent fan-in stress below
// doubles as a race detector for concurrent pool recycling.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "hwmodel/placement.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "xmpi/pool.hpp"
#include "xmpi/runtime.hpp"

namespace plin::xmpi {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

RunConfig mini_config(int ranks, TransportConfig transport = {},
                      std::size_t workers = 0) {
  RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/8, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  config.workers = workers;
  config.transport = transport;
  return config;
}

TransportConfig transport(CollectiveMode collectives = CollectiveMode::kTree) {
  TransportConfig t;
  t.collectives = collectives;
  return t;
}

/// Bitwise equality for double vectors (EXPECT_EQ would treat NaNs as
/// unequal even when the representations match).
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// ---- PayloadPool unit tests ------------------------------------------------

TEST(PayloadPoolTest, SizeClassBoundaries) {
  EXPECT_EQ(PayloadPool::class_of(1), 0);
  EXPECT_EQ(PayloadPool::class_of(64), 0);
  EXPECT_EQ(PayloadPool::class_of(65), 1);
  EXPECT_EQ(PayloadPool::class_of(128), 1);
  const std::size_t largest = std::size_t{64}
                              << (PayloadPool::kClassCount - 1);
  EXPECT_EQ(largest, std::size_t{4} * 1024 * 1024);
  EXPECT_EQ(PayloadPool::class_of(largest), PayloadPool::kClassCount - 1);
  EXPECT_EQ(PayloadPool::class_of(largest + 1), -1);
  EXPECT_EQ(PayloadPool::class_capacity(0), PayloadPool::kMinClassBytes);
  EXPECT_EQ(PayloadPool::class_capacity(PayloadPool::kClassCount - 1),
            largest);
}

TEST(PayloadPoolTest, RecyclesBufferAcrossAcquires) {
  PayloadPool pool;
  std::byte* first = nullptr;
  {
    PayloadBuffer buffer = pool.acquire(100);
    ASSERT_EQ(buffer.size(), 100u);
    first = buffer.data();
    buffer.data()[99] = std::byte{0x5a};
  }  // returned to the 128 B class free list
  PayloadBuffer again = pool.acquire(120);  // same class
  EXPECT_EQ(again.data(), first);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.recycled_buffers, 1u);
  EXPECT_EQ(stats.recycled_bytes, 128u);
}

TEST(PayloadPoolTest, CapEvictsExcessReturns) {
  PayloadPool pool;
  {
    std::vector<PayloadBuffer> live;
    for (std::size_t i = 0; i <= PayloadPool::kMaxCachedPerClass; ++i) {
      live.push_back(pool.acquire(64));
    }
  }  // only kMaxCachedPerClass of the returns may park on the free list
  EXPECT_EQ(pool.stats().recycled_buffers, PayloadPool::kMaxCachedPerClass);
}

TEST(PayloadPoolTest, OversizePayloadFallsBackToHeap) {
  PayloadPool pool;
  const std::size_t huge = std::size_t{8} * 1024 * 1024;
  {
    PayloadBuffer buffer = pool.acquire(huge);
    ASSERT_EQ(buffer.size(), huge);
    buffer.data()[huge - 1] = std::byte{1};
  }
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.recycled_buffers, 0u);  // oversize is never cached
  EXPECT_GE(stats.peak_payload_bytes, huge);
}

TEST(PayloadPoolTest, PeakTracksSimultaneouslyLiveBytes) {
  PayloadPool pool;
  PayloadBuffer a = pool.acquire(1000);
  PayloadBuffer b = pool.acquire(1000);
  EXPECT_GE(pool.stats().peak_payload_bytes, 2000u);
  a.reset();
  b.reset();
  PayloadBuffer c = pool.acquire(100);
  EXPECT_GE(pool.stats().peak_payload_bytes, 2000u);  // high-water holds
}

// ---- transport is invisible to simulated results ---------------------------

struct SolverRun {
  RunResult run;
  std::vector<double> x;
};

SolverRun pdgesv_run(const RunConfig& config) {
  SolverRun out;
  out.run = Runtime::run(config, [&](Comm& comm) {
    solvers::PdgesvOptions options;
    options.n = 64;
    options.seed = 21;
    options.nb = 8;
    const solvers::PdgesvResult result = solvers::solve_pdgesv(comm, options);
    if (comm.rank() == 0) out.x = result.x;
  });
  return out;
}

TEST(TransportIdentityTest, SolverOutputsBitIdenticalAcrossTransports) {
  const int ranks = 8;
  const SolverRun base = pdgesv_run(mini_config(ranks, transport()));
  ASSERT_EQ(base.x.size(), 64u);

  const RunConfig variants[] = {
      mini_config(ranks, transport(), /*workers=*/1),
      mini_config(ranks, transport(), /*workers=*/4),
      mini_config(ranks, transport(),
                  /*workers=*/static_cast<std::size_t>(ranks)),
  };
  for (const RunConfig& config : variants) {
    const SolverRun variant = pdgesv_run(config);
    EXPECT_EQ(variant.run.duration_s, base.run.duration_s);
    EXPECT_EQ(variant.run.energy.total_pkg_j(), base.run.energy.total_pkg_j());
    EXPECT_EQ(variant.run.energy.total_dram_j(),
              base.run.energy.total_dram_j());
    expect_bits_equal(variant.run.rank_times, base.run.rank_times);
    expect_bits_equal(variant.x, base.x);
  }
}

TEST(TransportIdentityTest, RecvCountersMirrorSendCounters) {
  // Every sent message is consumed by a receive in a balanced run, so the
  // receive-side mirror must equal the sum of the send-side classes.
  const RunResult run =
      Runtime::run(mini_config(8), [](Comm& comm) {
        std::vector<double> data(64, comm.rank() * 1.0);
        std::vector<double> out(64);
        comm.allreduce(std::span<const double>(data), std::span<double>(out),
                       ReduceOp::kSum);
        comm.barrier();
        const int next = (comm.rank() + 1) % comm.size();
        const int prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send_value(comm.rank(), next, /*tag=*/3);
        (void)comm.recv_value<int>(prev, /*tag=*/3);
      });
  EXPECT_EQ(run.traffic.recv_messages,
            run.traffic.data_messages + run.traffic.control_messages);
  EXPECT_EQ(run.traffic.recv_bytes,
            run.traffic.data_bytes + run.traffic.control_bytes);
  ASSERT_EQ(run.rank_traffic.size(), 8u);
  EXPECT_GT(run.rank_traffic.front().through_bytes(), 0u);
}

// ---- rendezvous path -------------------------------------------------------

TEST(RendezvousTest, ParkedExactMatchReceiveTakesZeroCopyPath) {
  // The receiver posts its recv immediately; the sender stalls on host time
  // first, so the receive is (all but certainly) registered and parked by
  // the time the send happens — delivery should write straight into the
  // destination span.
  const RunResult run = Runtime::run(
      mini_config(2, transport()),
      [](Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<double> data(512);
          comm.recv(std::span<double>(data), /*src=*/1, /*tag=*/7);
          EXPECT_EQ(data[0], 41.5);
          EXPECT_EQ(data[511], 41.5);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          std::vector<double> data(512, 41.5);
          comm.send(std::span<const double>(data), /*dst=*/0, /*tag=*/7);
        }
      });
  EXPECT_GE(run.transport.rendezvous_messages, 1u);
  EXPECT_GE(run.transport.rendezvous_bytes, 512u * sizeof(double));
}

TEST(RendezvousTest, ConcurrentFanInRecyclesPoolSafely) {
  // Concurrent senders funnel into rank 0 while it receives from each peer
  // in turn: payload buffers are acquired and recycled from many host
  // threads at once (the TSan-relevant stress). Whether a given message
  // takes the eager or the rendezvous path depends on host timing with
  // more than one worker, so only the invariants that hold by construction
  // are asserted.
  // The per-batch ack provides backpressure: without it the non-blocking
  // senders would run arbitrarily far ahead and every acquire could
  // legitimately miss (all buffers live at once).
  constexpr int kRanks = 8;
  constexpr int kRounds = 48;
  constexpr int kBatch = 16;
  const RunResult run = Runtime::run(
      mini_config(kRanks, transport(),
                  /*workers=*/4),
      [](Comm& comm) {
        if (comm.rank() == 0) {
          long long sum = 0;
          for (int batch = 0; batch < kRounds / kBatch; ++batch) {
            for (int i = 0; i < kBatch; ++i) {
              const int round = batch * kBatch + i;
              for (int peer = 1; peer < comm.size(); ++peer) {
                sum += comm.recv_value<int>(peer, /*tag=*/round % 5);
              }
            }
            for (int peer = 1; peer < comm.size(); ++peer) {
              comm.send_value(batch, peer, /*tag=*/99);
            }
          }
          // Each peer r sends r in every round.
          const long long peers = comm.size() - 1;
          EXPECT_EQ(sum, kRounds * peers * (peers + 1) / 2);
        } else {
          for (int round = 0; round < kRounds; ++round) {
            comm.send_value(comm.rank(), 0, /*tag=*/round % 5);
            if (round % kBatch == kBatch - 1) {
              EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/99), round / kBatch);
            }
          }
        }
      });
  EXPECT_EQ(run.transport.eager_messages + run.transport.rendezvous_messages,
            static_cast<std::uint64_t>((kRanks - 1) *
                                       (kRounds + kRounds / kBatch)));
  EXPECT_EQ(run.transport.pool.acquires(), run.transport.eager_messages);
}

TEST(RendezvousTest, PoolStatsSurfacedThroughRunResult) {
  // Ranks 1..7 each send rank 0 one 2 KiB payload per round and wait for
  // an int ack; rank 0 receives from each peer in rank order, then acks
  // them all. One worker fixes the host schedule (ranks run in rank order
  // until they park, and resume in wake order), so every count is exact:
  //   - rank 0 parks in its receive from rank 1 before rank 1 sends, so
  //     that payload is written in place (rendezvous); ranks 2..7 send
  //     while rank 0 is still parked on rank 1, so theirs go eager;
  //   - every peer is parked in its ack receive when rank 0 acks, so all
  //     seven acks rendezvous.
  // Rank 0 consumes (and so recycles) the six eager payloads of a round
  // before any peer sends again, so only the first round misses the pool.
  constexpr int kPeers = 7;
  constexpr int kRounds = 16;
  const RunResult run = Runtime::run(
      mini_config(kPeers + 1, transport(), /*workers=*/1), [](Comm& comm) {
        std::vector<double> data(256, comm.rank() * 1.0);
        for (int round = 0; round < kRounds; ++round) {
          if (comm.rank() == 0) {
            for (int peer = 1; peer < comm.size(); ++peer) {
              comm.recv(std::span<double>(data), peer, /*tag=*/5);
              EXPECT_EQ(data[255], peer * 1.0);
            }
            for (int peer = 1; peer < comm.size(); ++peer) {
              comm.send_value(round, peer, /*tag=*/6);
            }
          } else {
            comm.send(std::span<const double>(data), /*dst=*/0, /*tag=*/5);
            EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/6), round);
          }
        }
      });
  // Per round: one payload and seven acks in place, six payloads eager.
  EXPECT_EQ(run.transport.rendezvous_messages, (1u + kPeers) * kRounds);
  EXPECT_EQ(run.transport.eager_messages, (kPeers - 1u) * kRounds);
  EXPECT_EQ(run.transport.pool.acquires(), run.transport.eager_messages);
  EXPECT_EQ(run.transport.pool.misses, kPeers - 1u);
  EXPECT_EQ(run.transport.pool.hits, (kPeers - 1u) * (kRounds - 1u));
  EXPECT_GE(run.transport.pool.peak_payload_bytes, 256 * sizeof(double));
}

// ---- collective schedules --------------------------------------------------

std::vector<double> run_allreduce(int ranks, CollectiveMode mode,
                                  std::vector<double> contribution_rank0,
                                  ReduceOp op, std::size_t workers = 0) {
  // Rank r contributes contribution_rank0 rotated by r (so every rank's
  // vector is distinct but derived from the same pool of values, including
  // any NaNs placed in it).
  const std::size_t count = contribution_rank0.size();
  std::vector<double> result;
  Runtime::run(
      mini_config(ranks, transport(mode),
                  workers),
      [&](Comm& comm) {
        std::vector<double> mine(count);
        for (std::size_t i = 0; i < count; ++i) {
          mine[i] =
              contribution_rank0[(i + static_cast<std::size_t>(comm.rank())) %
                                 count] +
              comm.rank() * 1e-6;
        }
        std::vector<double> out(count);
        comm.allreduce(std::span<const double>(mine), std::span<double>(out),
                       op);
        if (comm.rank() == 0) result = out;
        // Allreduce contract: every rank holds the same bytes.
        std::vector<double> again(count);
        comm.allreduce(std::span<const double>(mine), std::span<double>(again),
                       op);
        EXPECT_EQ(std::memcmp(out.data(), again.data(),
                              count * sizeof(double)),
                  0);
      });
  return result;
}

TEST(ScalableCollectivesTest, AllreducePof2BitIdenticalToTree) {
  // P=8 exercises both scalable paths: count >= P takes reduce-scatter +
  // allgather, count < P takes recursive doubling. The rank-order-
  // preserving combine makes both bit-identical to the seed tree at
  // power-of-two rank counts — including NaN propagation.
  std::vector<double> base(64);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = std::sin(static_cast<double>(i) * 0.7) * 1e3;
  }
  base[13] = kNaN;
  for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
    const std::vector<double> tree =
        run_allreduce(8, CollectiveMode::kTree, base, op);
    const std::vector<double> scalable =
        run_allreduce(8, CollectiveMode::kScalable, base, op);
    expect_bits_equal(tree, scalable);

    const std::vector<double> short_base(base.begin(), base.begin() + 3);
    const std::vector<double> tree_rd =
        run_allreduce(8, CollectiveMode::kTree, short_base, op);
    const std::vector<double> scalable_rd =
        run_allreduce(8, CollectiveMode::kScalable, short_base, op);
    expect_bits_equal(tree_rd, scalable_rd);
  }
}

TEST(ScalableCollectivesTest, AllreduceNonPof2BitIdenticalToTree) {
  std::vector<double> base(32);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = std::cos(static_cast<double>(i)) * 17.0;
  }
  // kMax/kMin pick an input value — reassociation cannot change the bytes
  // — and kSum now holds bitwise too: the binary-blocks schedules
  // reproduce the seed tree's combine bracketing at every P
  // (xmpi_scale_test covers more sizes and the NaN contract).
  for (const ReduceOp op :
       {ReduceOp::kMax, ReduceOp::kMin, ReduceOp::kSum}) {
    expect_bits_equal(run_allreduce(6, CollectiveMode::kTree, base, op),
                      run_allreduce(6, CollectiveMode::kScalable, base, op));
  }
  // And the bytes are worker-count-independent, up to one worker per rank.
  const std::vector<double> scalable = run_allreduce(
      6, CollectiveMode::kScalable, base, ReduceOp::kSum, /*workers=*/1);
  const std::vector<double> scalable_threads = run_allreduce(
      6, CollectiveMode::kScalable, base, ReduceOp::kSum, /*workers=*/6);
  expect_bits_equal(scalable, scalable_threads);
}

TEST(ScalableCollectivesTest, RingAllgatherMatchesTreeSchedule) {
  // Allgather is pure concatenation — any correct schedule produces the
  // same bytes, so ring vs gather+bcast must agree exactly.
  for (const int ranks : {1, 2, 6, 8}) {
    constexpr std::size_t kChunk = 5;
    std::vector<double> tree_out;
    std::vector<double> ring_out;
    for (const CollectiveMode mode :
         {CollectiveMode::kTree, CollectiveMode::kScalable}) {
      Runtime::run(
          mini_config(ranks,
                      transport(mode)),
          [&](Comm& comm) {
            std::vector<double> mine(kChunk);
            for (std::size_t i = 0; i < kChunk; ++i) {
              mine[i] = comm.rank() * 100.0 + static_cast<double>(i);
            }
            std::vector<double> all(kChunk *
                                    static_cast<std::size_t>(comm.size()));
            comm.allgather(std::span<const double>(mine),
                           std::span<double>(all));
            if (comm.rank() == comm.size() - 1) {
              (mode == CollectiveMode::kTree ? tree_out : ring_out) = all;
            }
          });
    }
    ASSERT_EQ(tree_out.size(), kChunk * static_cast<std::size_t>(ranks));
    expect_bits_equal(tree_out, ring_out);
  }
}

// ---- NaN / tie-break contracts ---------------------------------------------

TEST(ReduceContractTest, CombineOneNaNAsymmetryPinned) {
  // kMax/kMin keep the accumulator (lower-rank side) on any NaN
  // comparison: combine(acc=NaN, x) == NaN but combine(acc=x, NaN) == x.
  // Both schedule families are built on this primitive, which is why NaN
  // propagation is still deterministic (it depends only on rank order).
  EXPECT_TRUE(std::isnan(detail::combine_one(ReduceOp::kMax, kNaN, 1.0)));
  EXPECT_EQ(detail::combine_one(ReduceOp::kMax, 1.0, kNaN), 1.0);
  EXPECT_TRUE(std::isnan(detail::combine_one(ReduceOp::kMin, kNaN, 1.0)));
  EXPECT_EQ(detail::combine_one(ReduceOp::kMin, 1.0, kNaN), 1.0);
  EXPECT_TRUE(std::isnan(detail::combine_one(ReduceOp::kSum, kNaN, 1.0)));
  EXPECT_TRUE(std::isnan(detail::combine_one(ReduceOp::kSum, 1.0, kNaN)));
}

TEST(ReduceContractTest, ReduceKeepsAccumulatorSideNaN) {
  // Root (= rank 0, the lowest-rank side of every combine) holding NaN
  // poisons kMax; a NaN on any other rank is absorbed by the accumulator.
  for (const int nan_rank : {0, 1}) {
    double root_value = 0.0;
    Runtime::run(mini_config(2), [&](Comm& comm) {
      const double mine = comm.rank() == nan_rank ? kNaN : 1.0;
      double out = 0.0;
      comm.reduce(std::span<const double>(&mine, 1), std::span<double>(&out, 1),
                  ReduceOp::kMax, /*root=*/0);
      if (comm.rank() == 0) root_value = out;
    });
    if (nan_rank == 0) {
      EXPECT_TRUE(std::isnan(root_value));
    } else {
      EXPECT_EQ(root_value, 1.0);
    }
  }
}

Comm::MaxLoc run_maxloc(int ranks, CollectiveMode mode,
                        const std::vector<double>& values) {
  Comm::MaxLoc result;
  Runtime::run(
      mini_config(ranks, transport(mode)),
      [&](Comm& comm) {
        const Comm::MaxLoc mine = comm.allreduce_maxloc(
            values[static_cast<std::size_t>(comm.rank())], comm.rank());
        if (comm.rank() == 0) result = mine;
        // Every rank must agree bit-for-bit.
        const Comm::MaxLoc again = comm.allreduce_maxloc(
            values[static_cast<std::size_t>(comm.rank())], comm.rank());
        EXPECT_EQ(std::memcmp(&mine.value, &again.value, sizeof(double)), 0);
        EXPECT_EQ(mine.index, again.index);
      });
  return result;
}

TEST(MaxlocContractTest, NaNLosesToNumericAndTiesTakeLowestIndex) {
  // Total order (documented in docs/xmpi.md): any numeric beats NaN;
  // equal values and NaN-vs-NaN tie-break to the lowest index. Both
  // schedule families implement the same comparator, so they must agree
  // at power-of-two and non-power-of-two rank counts alike.
  for (const CollectiveMode mode :
       {CollectiveMode::kTree, CollectiveMode::kScalable}) {
    for (const int ranks : {5, 8}) {
      std::vector<double> values(static_cast<std::size_t>(ranks), 1.0);
      values[2] = kNaN;
      values[3] = 7.0;
      const Comm::MaxLoc numeric = run_maxloc(ranks, mode, values);
      EXPECT_EQ(numeric.value, 7.0);
      EXPECT_EQ(numeric.index, 3);

      const std::vector<double> ties(static_cast<std::size_t>(ranks), 4.25);
      const Comm::MaxLoc tie = run_maxloc(ranks, mode, ties);
      EXPECT_EQ(tie.value, 4.25);
      EXPECT_EQ(tie.index, 0);

      const std::vector<double> all_nan(static_cast<std::size_t>(ranks),
                                        kNaN);
      const Comm::MaxLoc nan = run_maxloc(ranks, mode, all_nan);
      EXPECT_TRUE(std::isnan(nan.value));
      EXPECT_EQ(nan.index, 0);
    }
  }
}

Comm::MaxLocT<float> run_maxloc_f32(int ranks, CollectiveMode mode,
                                    const std::vector<float>& values) {
  Comm::MaxLocT<float> result;
  Runtime::run(
      mini_config(ranks, transport(mode)),
      [&](Comm& comm) {
        const Comm::MaxLocT<float> mine = comm.allreduce_maxloc(
            values[static_cast<std::size_t>(comm.rank())],
            static_cast<long long>(comm.rank()));
        if (comm.rank() == 0) result = mine;
        const Comm::MaxLocT<float> again = comm.allreduce_maxloc(
            values[static_cast<std::size_t>(comm.rank())],
            static_cast<long long>(comm.rank()));
        EXPECT_EQ(std::memcmp(&mine.value, &again.value, sizeof(float)), 0);
        EXPECT_EQ(mine.index, again.index);
      });
  return result;
}

TEST(MaxlocContractTest, Fp32PayloadsPinTheSameTotalOrder) {
  // The float overload backs the fp32 panel factorization of gepp_mixed:
  // the same NaN-never-beats-numeric / lowest-index-on-ties order must
  // hold, in both schedule families, or the mixed solver's pivot choices
  // would depend on the collective mode.
  constexpr float kNaN32 = std::numeric_limits<float>::quiet_NaN();
  for (const CollectiveMode mode :
       {CollectiveMode::kTree, CollectiveMode::kScalable}) {
    for (const int ranks : {5, 8}) {
      std::vector<float> values(static_cast<std::size_t>(ranks), 1.0f);
      values[2] = kNaN32;
      values[3] = 7.0f;
      const Comm::MaxLocT<float> numeric = run_maxloc_f32(ranks, mode, values);
      EXPECT_EQ(numeric.value, 7.0f);
      EXPECT_EQ(numeric.index, 3);

      const std::vector<float> ties(static_cast<std::size_t>(ranks), 4.25f);
      const Comm::MaxLocT<float> tie = run_maxloc_f32(ranks, mode, ties);
      EXPECT_EQ(tie.value, 4.25f);
      EXPECT_EQ(tie.index, 0);

      const std::vector<float> all_nan(static_cast<std::size_t>(ranks),
                                       kNaN32);
      const Comm::MaxLocT<float> nan = run_maxloc_f32(ranks, mode, all_nan);
      EXPECT_TRUE(std::isnan(nan.value));
      EXPECT_EQ(nan.index, 0);
    }
  }
}

TEST(MaxlocContractTest, Fp32TreeAndScalableAgreeOnMixedInputs) {
  for (const int ranks : {3, 6, 8}) {
    std::vector<float> values(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      values[static_cast<std::size_t>(r)] =
          static_cast<float>((r * 5 + 2) % ranks);
    }
    const Comm::MaxLocT<float> tree =
        run_maxloc_f32(ranks, CollectiveMode::kTree, values);
    const Comm::MaxLocT<float> scalable =
        run_maxloc_f32(ranks, CollectiveMode::kScalable, values);
    EXPECT_EQ(std::memcmp(&tree.value, &scalable.value, sizeof(float)), 0);
    EXPECT_EQ(tree.index, scalable.index);
  }
}

TEST(ReduceContractTest, Fp32ReduceNaNAndSchedulesAgree) {
  // float reduce carries the fp32 pivot rows and partial sums of the mixed
  // solver; pin the same accumulator-side NaN contract and tree/scalable
  // agreement the double payloads have.
  constexpr float kNaN32 = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(detail::combine_one(ReduceOp::kMax, kNaN32, 1.0f)));
  EXPECT_EQ(detail::combine_one(ReduceOp::kMax, 1.0f, kNaN32), 1.0f);
  EXPECT_TRUE(std::isnan(detail::combine_one(ReduceOp::kSum, kNaN32, 1.0f)));

  for (const CollectiveMode mode :
       {CollectiveMode::kTree, CollectiveMode::kScalable}) {
    for (const int ranks : {4, 8}) {
      std::vector<float> root_sum;
      Runtime::run(
          mini_config(ranks,
                      transport(mode)),
          [&](Comm& comm) {
            std::vector<float> mine(16);
            for (std::size_t i = 0; i < mine.size(); ++i) {
              mine[i] = static_cast<float>(comm.rank() + 1) *
                        static_cast<float>(i + 1);
            }
            std::vector<float> out(mine.size(), 0.0f);
            comm.reduce(std::span<const float>(mine), std::span<float>(out),
                        ReduceOp::kSum, 0);
            if (comm.rank() == 0) root_sum = out;
          });
      ASSERT_EQ(root_sum.size(), 16u);
      // Rank-ordered combine: the sum is the exact sequential left fold.
      for (std::size_t i = 0; i < root_sum.size(); ++i) {
        float expect = 0.0f;
        for (int r = 0; r < ranks; ++r) {
          expect += static_cast<float>(r + 1) * static_cast<float>(i + 1);
        }
        EXPECT_EQ(root_sum[i], expect);
      }
    }
  }
}

TEST(MaxlocContractTest, TreeAndScalableAgreeOnMixedInputs) {
  for (const int ranks : {3, 6, 8}) {
    std::vector<double> values(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      values[static_cast<std::size_t>(r)] =
          static_cast<double>((r * 5 + 2) % ranks);
    }
    const Comm::MaxLoc tree = run_maxloc(ranks, CollectiveMode::kTree, values);
    const Comm::MaxLoc scalable =
        run_maxloc(ranks, CollectiveMode::kScalable, values);
    EXPECT_EQ(std::memcmp(&tree.value, &scalable.value, sizeof(double)), 0);
    EXPECT_EQ(tree.index, scalable.index);
  }
}

// ---- scalable schedules under the solver -----------------------------------

TEST(ScalableCollectivesTest, SolverResidualHoldsUnderScalableSchedules) {
  // The solvers only require a deterministic allreduce, not the tree's
  // exact bracketing: the scalable schedule must still produce a valid,
  // repeatable solve.
  const SolverRun first = pdgesv_run(mini_config(
      8, transport(CollectiveMode::kScalable)));
  const SolverRun second = pdgesv_run(mini_config(
      8, transport(CollectiveMode::kScalable)));
  ASSERT_EQ(first.x.size(), 64u);
  expect_bits_equal(first.x, second.x);
  EXPECT_EQ(first.run.duration_s, second.run.duration_s);
}

}  // namespace
}  // namespace plin::xmpi
