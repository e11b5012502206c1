// Tests for the xmpi runtime: point-to-point semantics, collectives,
// communicator splitting, virtual-time behaviour and energy accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "hwmodel/placement.hpp"
#include "xmpi/runtime.hpp"

namespace plin::xmpi {
namespace {

RunConfig mini_config(int ranks, hw::LoadLayout layout = hw::LoadLayout::kFullLoad,
                      int cores_per_socket = 4) {
  RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/64, cores_per_socket);
  config.placement = hw::make_placement(ranks, layout, config.machine);
  return config;
}

TEST(XmpiRuntime, RunsEveryRankExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> seen(8);
  const RunResult result = Runtime::run(mini_config(8), [&](Comm& comm) {
    calls.fetch_add(1);
    seen[static_cast<std::size_t>(comm.rank())].fetch_add(1);
    EXPECT_EQ(comm.size(), 8);
  });
  EXPECT_EQ(calls.load(), 8);
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(result.rank_times.size(), 8u);
}

TEST(XmpiRuntime, SendRecvDeliversPayload) {
  Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> payload = {1.5, -2.0, 3.25};
      comm.send(std::span<const double>(payload), 1, /*tag=*/7);
    } else {
      std::vector<double> buffer(3);
      comm.recv(std::span<double>(buffer), 0, 7);
      EXPECT_EQ(buffer[0], 1.5);
      EXPECT_EQ(buffer[1], -2.0);
      EXPECT_EQ(buffer[2], 3.25);
    }
  });
}

TEST(XmpiRuntime, MessagesBetweenSamePairKeepFifoOrder) {
  Runtime::run(mini_config(2), [](Comm& comm) {
    constexpr int kCount = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) comm.send_value(i, 1, /*tag=*/1);
    } else {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 1), i);
      }
    }
  });
}

TEST(XmpiRuntime, VirtualTimeAdvancesWithCompute) {
  const RunResult result = Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(ComputeCost{/*flops=*/6.72e9, 0.0, /*efficiency=*/1.0});
      // 6.72e9 flops at 67.2 Gflop/s peak = 0.1 s.
      EXPECT_NEAR(comm.now(), 0.1, 1e-9);
    }
  });
  EXPECT_NEAR(result.duration_s, 0.1, 1e-9);
}

TEST(XmpiRuntime, ReceiverWaitsForVirtualArrival) {
  Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(ComputeCost{6.72e9, 0.0, 1.0});  // 0.1 s
      comm.send_value(42, 1, 0);
    } else {
      const int value = comm.recv_value<int>(0, 0);
      EXPECT_EQ(value, 42);
      // Receiver's clock must be past the sender's send time.
      EXPECT_GT(comm.now(), 0.1);
    }
  });
}

TEST(XmpiRuntime, BarrierAlignsClocksToSlowest) {
  Runtime::run(mini_config(8), [](Comm& comm) {
    if (comm.rank() == 3) comm.compute(ComputeCost{6.72e9, 0.0, 1.0});
    comm.barrier();
    EXPECT_GE(comm.now(), 0.1);
    EXPECT_LT(comm.now(), 0.1 + 1e-3);  // barrier overhead is microseconds
  });
}

TEST(XmpiRuntime, BcastDeliversFromEveryRoot) {
  Runtime::run(mini_config(8), [](Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<double> data(16, comm.rank() == root ? root * 1.0 : -1.0);
      comm.bcast(std::span<double>(data), root);
      for (double v : data) EXPECT_EQ(v, root * 1.0);
    }
  });
}

TEST(XmpiRuntime, ReduceSumsAcrossRanks) {
  Runtime::run(mini_config(7), [](Comm& comm) {
    const std::vector<double> data = {1.0, comm.rank() * 1.0};
    std::vector<double> out(2, 0.0);
    comm.reduce(std::span<const double>(data), std::span<double>(out),
                ReduceOp::kSum, /*root=*/2);
    if (comm.rank() == 2) {
      EXPECT_DOUBLE_EQ(out[0], 7.0);
      EXPECT_DOUBLE_EQ(out[1], 0 + 1 + 2 + 3 + 4 + 5 + 6.0);
    }
  });
}

TEST(XmpiRuntime, AllreduceMinMax) {
  Runtime::run(mini_config(5), [](Comm& comm) {
    const double mine = 10.0 + comm.rank();
    EXPECT_DOUBLE_EQ(comm.allreduce_value(mine, ReduceOp::kMax), 14.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_value(mine, ReduceOp::kMin), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_value(mine, ReduceOp::kSum), 60.0);
  });
}

TEST(XmpiRuntime, AllreduceMaxlocFindsOwnerOfLargest) {
  Runtime::run(mini_config(6), [](Comm& comm) {
    // Rank 4 holds the largest value.
    const double value = comm.rank() == 4 ? 99.0 : comm.rank();
    const Comm::MaxLoc result = comm.allreduce_maxloc(value, comm.rank());
    EXPECT_DOUBLE_EQ(result.value, 99.0);
    EXPECT_EQ(result.index, 4);
  });
}

TEST(XmpiRuntime, AllreduceMaxlocBreaksTiesByLowestIndex) {
  Runtime::run(mini_config(6), [](Comm& comm) {
    const Comm::MaxLoc result = comm.allreduce_maxloc(5.0, comm.rank());
    EXPECT_DOUBLE_EQ(result.value, 5.0);
    EXPECT_EQ(result.index, 0);
  });
}

TEST(XmpiRuntime, GatherCollectsInRankOrder) {
  Runtime::run(mini_config(4), [](Comm& comm) {
    const std::vector<int> mine = {comm.rank() * 2, comm.rank() * 2 + 1};
    std::vector<int> out(8, -1);
    comm.gather(std::span<const int>(mine), std::span<int>(out), /*root=*/1);
    if (comm.rank() == 1) {
      for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
    }
  });
}

TEST(XmpiRuntime, AllgatherGivesEveryoneEverything) {
  Runtime::run(mini_config(4), [](Comm& comm) {
    const std::vector<int> mine = {comm.rank()};
    std::vector<int> out(4, -1);
    comm.allgather(std::span<const int>(mine), std::span<int>(out));
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  });
}

TEST(XmpiRuntime, BcastStreamsAreIndependentChannels) {
  // Two broadcast sequences issued in *different* per-rank orders: the
  // root sends stream-1 payloads before its stream-0 participation while
  // other ranks receive stream 0 first. Distinct streams must not
  // cross-match (this is what lets IMeP keep the auxiliary-vector
  // broadcast off its critical path).
  Runtime::run(mini_config(8), [](Comm& comm) {
    std::vector<double> a(4, comm.rank() == 0 ? 1.0 : 0.0);
    std::vector<double> b(4, comm.rank() == 0 ? 2.0 : 0.0);
    if (comm.rank() == 0) {
      comm.bcast(std::span<double>(b), 0, /*stream=*/1);  // sends only
      comm.bcast(std::span<double>(a), 0, /*stream=*/0);
    } else {
      comm.bcast(std::span<double>(a), 0, /*stream=*/0);
      comm.bcast(std::span<double>(b), 0, /*stream=*/1);
    }
    EXPECT_DOUBLE_EQ(a[0], 1.0);
    EXPECT_DOUBLE_EQ(b[0], 2.0);
  });
}

TEST(XmpiRuntime, BcastStreamSequencesInterleaveSafely) {
  // Many rounds alternating two streams with rotating roots — a stress of
  // the per-(src, tag) FIFO matching under rotation (the IMeP pattern).
  Runtime::run(mini_config(8), [](Comm& comm) {
    for (int round = 0; round < 32; ++round) {
      const int root_a = round % comm.size();
      std::vector<int> payload_a(3, comm.rank() == root_a ? round : -1);
      std::vector<int> payload_b(5, comm.rank() == 0 ? 100 + round : -1);
      comm.bcast(std::span<int>(payload_a), root_a, 0);
      comm.bcast(std::span<int>(payload_b), 0, 1);
      EXPECT_EQ(payload_a[2], round);
      EXPECT_EQ(payload_b[4], 100 + round);
    }
  });
}

TEST(XmpiRuntime, SplitGroupsByColorOrderedByKey) {
  Runtime::run(mini_config(8), [](Comm& comm) {
    // Even/odd split with key reversing the order.
    Comm sub = comm.split(comm.rank() % 2, -comm.rank());
    EXPECT_EQ(sub.size(), 4);
    // Highest parent rank gets sub-rank 0 because of the negative key.
    const int expected_rank = (7 - comm.rank()) / 2;
    EXPECT_EQ(sub.rank(), expected_rank);
    // Communication stays inside the split group.
    const int sum = sub.allreduce_value(comm.rank(), ReduceOp::kSum);
    EXPECT_EQ(sum, comm.rank() % 2 == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7);
  });
}

TEST(XmpiRuntime, SplitSharedNodeGroupsRanksByNode) {
  // 16 ranks on mini nodes of 8 cores => 2 nodes of 8 ranks.
  Runtime::run(mini_config(16), [](Comm& comm) {
    Comm node_comm = comm.split_shared_node();
    EXPECT_EQ(node_comm.size(), 8);
    const int my_node = comm.my_node();
    EXPECT_EQ(my_node, comm.rank() / 8);
    // All members observe the same node.
    const int max_node = node_comm.allreduce_value(my_node, ReduceOp::kMax);
    EXPECT_EQ(max_node, my_node);
    // Highest world rank in the node comm is the monitoring rank.
    const int max_parent =
        node_comm.allreduce_value(comm.rank(), ReduceOp::kMax);
    EXPECT_EQ(max_parent, my_node * 8 + 7);
  });
}

TEST(XmpiRuntime, TrafficCountersCountDataMessages) {
  const RunResult result = Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> payload(100, 1.0);
      comm.send(std::span<const double>(payload), 1, 0);
    } else {
      std::vector<double> buffer(100);
      comm.recv(std::span<double>(buffer), 0, 0);
    }
  });
  EXPECT_EQ(result.traffic.data_messages, 1u);
  EXPECT_EQ(result.traffic.data_bytes, 100u * sizeof(double));
  EXPECT_DOUBLE_EQ(result.traffic.data_floats(), 100.0);
  EXPECT_EQ(result.traffic.control_messages, 0u);
}

TEST(XmpiRuntime, BcastCountsTreeMessages) {
  // A binomial broadcast to P ranks sends exactly P-1 copies — the same
  // count the paper's closed-form formulas use.
  const RunResult result = Runtime::run(mini_config(8), [](Comm& comm) {
    std::vector<double> data(10, comm.rank() == 0 ? 1.0 : 0.0);
    comm.bcast(std::span<double>(data), 0);
  });
  EXPECT_EQ(result.traffic.data_messages, 7u);
  EXPECT_EQ(result.traffic.data_bytes, 7u * 10u * sizeof(double));
}

TEST(XmpiRuntime, BarrierTrafficIsControlNotData) {
  const RunResult result =
      Runtime::run(mini_config(8), [](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(result.traffic.data_messages, 0u);
  EXPECT_GT(result.traffic.control_messages, 0u);
}

TEST(XmpiRuntime, EnergyReportGrowsWithWork) {
  const RunConfig config = mini_config(8);
  const RunResult idle = Runtime::run(config, [](Comm& comm) {
    comm.compute(ComputeCost{6.72e7, 0.0, 1.0});  // 1 ms
  });
  const RunResult busy = Runtime::run(config, [](Comm& comm) {
    comm.compute(ComputeCost{6.72e9, 0.0, 1.0});  // 100 ms
  });
  EXPECT_GT(busy.duration_s, idle.duration_s);
  EXPECT_GT(busy.energy.total_pkg_j(), idle.energy.total_pkg_j());
  EXPECT_GT(busy.energy.total_dram_j(), idle.energy.total_dram_j());
  EXPECT_GT(busy.energy.total_j(), 0.0);
}

TEST(XmpiRuntime, MemoryTouchChargesDramTraffic) {
  const RunConfig config = mini_config(2);
  const RunResult result = Runtime::run(config, [](Comm& comm) {
    if (comm.rank() == 0) comm.memory_touch(1e9);
  });
  // 1 GB at (96 GB/s shared by 4 ranks... rank 0 is one of 2 ranks placed)
  EXPECT_GT(result.duration_s, 0.0);
  EXPECT_GT(result.energy.total_dram_j(), 0.0);
}

TEST(XmpiRuntime, HalfLoadOneSocketLeaksOntoIdlePackage) {
  // 8 ranks, nodes have 2 sockets x 4 cores. Half-load-one-socket puts all
  // 4 ranks of a node on socket 0; socket 1 must still show dynamic energy
  // (the paper's §5.3 observation), but less than socket 0.
  RunConfig config = mini_config(8, hw::LoadLayout::kHalfLoadOneSocket);
  const RunResult result = Runtime::run(config, [](Comm& comm) {
    comm.compute(ComputeCost{6.72e9, 0.0, 1.0});
  });
  ASSERT_EQ(result.energy.nodes.size(), 2u);
  const PackageEnergy& pkg0 = result.energy.nodes[0].packages[0];
  const PackageEnergy& pkg1 = result.energy.nodes[0].packages[1];
  EXPECT_GT(pkg0.pkg_j, pkg1.pkg_j);
  // Baseline-only energy for this duration:
  const double base =
      (config.machine.power.pkg_base_w +
       4 * config.machine.power.core_idle_w) * result.duration_s;
  EXPECT_GT(pkg1.pkg_j, base);  // leakage beyond pure idle
}

TEST(XmpiRuntime, ActivityBreakdownAccountsBusyTime) {
  const RunResult result = Runtime::run(mini_config(4), [](Comm& comm) {
    comm.compute(ComputeCost{6.72e8, 0.0, 1.0});  // 10 ms pure compute
    comm.memory_touch(24e7);                      // 10 ms memory-bound
    comm.barrier();
  });
  // Four ranks each computed 10 ms and streamed 10 ms.
  EXPECT_NEAR(result.compute_s, 4 * 0.010, 1e-6);
  EXPECT_NEAR(result.membound_s, 4 * 0.010, 1e-6);
  EXPECT_GT(result.commactive_s, 0.0);  // barrier messages
  EXPECT_LE(result.busy_s(), 4 * result.duration_s + 1e-9);
}

TEST(XmpiRuntime, WaitTimeShowsUpInTheBreakdown) {
  const RunResult result = Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(ComputeCost{6.72e8, 0.0, 1.0});  // 10 ms
      comm.send_value(1, 1, 0);
    } else {
      (void)comm.recv_value<int>(0, 0);  // waits ~10 ms
    }
  });
  EXPECT_NEAR(result.commwait_s, 0.010, 0.001);
}

TEST(XmpiRuntime, SendrecvExchangesSymmetrically) {
  Runtime::run(mini_config(4), [](Comm& comm) {
    const int peer = comm.rank() ^ 1;
    const std::vector<double> mine(6, comm.rank() * 1.0);
    std::vector<double> theirs(6, -1.0);
    comm.sendrecv(std::span<const double>(mine), std::span<double>(theirs),
                  peer, 8);
    for (double v : theirs) EXPECT_DOUBLE_EQ(v, peer * 1.0);
  });
}

TEST(XmpiRuntime, IprobeSeesQueuedMessagesWithoutConsuming) {
  Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(7, 1, /*tag=*/5);
      comm.barrier();
    } else {
      EXPECT_FALSE(comm.iprobe(0, /*tag=*/99));
      comm.barrier();  // guarantees the message is queued (host-side)
      EXPECT_TRUE(comm.iprobe(0, 5));
      EXPECT_TRUE(comm.iprobe(0, 5));  // a second probe still sees it
      EXPECT_FALSE(comm.iprobe(0, 6));
      // Probing does not consume.
      EXPECT_EQ(comm.recv_value<int>(0, 5), 7);
      EXPECT_FALSE(comm.iprobe(0, 5));
    }
  });
}

TEST(XmpiRuntime, NonblockingSendRecvRoundTrip) {
  Runtime::run(mini_config(2), [](Comm& comm) {
    std::vector<double> buffer(8, -1.0);
    if (comm.rank() == 0) {
      const std::vector<double> payload = {0, 1, 2, 3, 4, 5, 6, 7};
      Request send = comm.isend(std::span<const double>(payload), 1, 2);
      EXPECT_TRUE(send.test());  // buffered: complete immediately
      send.wait();               // idempotent
    } else {
      Request recv = comm.irecv(std::span<double>(buffer), 0, 2);
      recv.wait();
      for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(buffer[i], i);
    }
  });
}

TEST(XmpiRuntime, NonblockingTestReportsPendingThenComplete) {
  Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> buffer(1, -1);
      Request recv = comm.irecv(std::span<int>(buffer), 1, 9);
      EXPECT_FALSE(recv.test());  // nothing sent yet: the peer waits below
      comm.barrier();             // releases the peer's send
      comm.barrier();             // peer sends before its second barrier
      EXPECT_TRUE(recv.test());
      EXPECT_EQ(buffer[0], 42);
      EXPECT_TRUE(recv.test());  // stays complete
    } else {
      comm.barrier();  // on another worker, sending earlier races the test
      comm.send_value(42, 0, 9);
      comm.barrier();
    }
  });
}

TEST(XmpiRuntime, WaitAllCompletesABatch) {
  Runtime::run(mini_config(4), [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> values(3, -1);
      std::vector<Request> requests;
      for (int src = 1; src < 4; ++src) {
        requests.push_back(comm.irecv(
            std::span<int>(&values[static_cast<std::size_t>(src - 1)], 1),
            src, 4));
      }
      wait_all(requests);
      EXPECT_EQ(values[0], 10);
      EXPECT_EQ(values[1], 20);
      EXPECT_EQ(values[2], 30);
    } else {
      (void)comm.isend(
          std::span<const int>(std::array<int, 1>{comm.rank() * 10}.data(),
                               1),
          0, 4);
    }
  });
}

TEST(XmpiRuntime, NonblockingRecvChargesWaitTimeAtCompletion) {
  // The receive's virtual-time accounting happens at wait(), so a late
  // wait absorbs the arrival gap as commwait, like a blocking receive.
  Runtime::run(mini_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(ComputeCost{6.72e8, 0.0, 1.0});  // 10 ms
      comm.send_value(1, 1, 0);
    } else {
      int value = 0;
      Request recv = comm.irecv(std::span<int>(&value, 1), 0, 0);
      recv.wait();
      EXPECT_GT(comm.now(), 0.010);
      EXPECT_EQ(value, 1);
    }
  });
}

TEST(XmpiRuntime, IdleWaitAdvancesClockAtWaitPower) {
  const RunResult result = Runtime::run(mini_config(1), [](Comm& comm) {
    comm.idle_wait(0.25);
    EXPECT_DOUBLE_EQ(comm.now(), 0.25);
  });
  EXPECT_DOUBLE_EQ(result.duration_s, 0.25);
  EXPECT_NEAR(result.commwait_s, 0.25, 1e-12);
}

TEST(XmpiRuntime, ChromeTraceExportWritesEvents) {
  const std::string path = ::testing::TempDir() + "plin_trace_test.json";
  std::filesystem::remove(path);
  RunConfig config = mini_config(4);
  config.chrome_trace_path = path;
  Runtime::run(config, [](Comm& comm) {
    comm.compute(ComputeCost{1e7, 0.0, 1.0});
    comm.barrier();
  });
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  const std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '[');
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"commactive\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"rank 3\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(XmpiRuntime, TracingOffByDefaultCollectsNothing) {
  // No trace path => no per-rank event collection (memory stays flat).
  const RunResult result = Runtime::run(mini_config(2), [](Comm& comm) {
    comm.compute(ComputeCost{1e7, 0.0, 1.0});
  });
  EXPECT_GT(result.duration_s, 0.0);  // run executed normally
}

TEST(XmpiRuntime, WattmeterTimelineCoversTheRun) {
  RunConfig config = mini_config(8);
  config.timeline_period_s = 0.002;
  const RunResult result = Runtime::run(config, [](Comm& comm) {
    comm.compute(ComputeCost{6.72e8, 0.0, 1.0});  // 10 ms flat compute
  });
  ASSERT_EQ(result.timeline.size(), 1u);
  const NodeTimeline& node = result.timeline[0];
  ASSERT_EQ(node.samples.size(), 5u);  // 10 ms at 2 ms period
  // Flat compute => flat power; windows integrate to the total energy.
  double integrated = 0.0;
  double prev_t = 0.0;
  for (const TimelineSample& s : node.samples) {
    EXPECT_NEAR(s.node_w(), node.samples[0].node_w(),
                0.01 * node.samples[0].node_w());
    integrated += s.node_w() * (s.t - prev_t);
    prev_t = s.t;
  }
  EXPECT_NEAR(integrated, result.energy.total_j(),
              0.01 * result.energy.total_j());
}

TEST(XmpiRuntime, WattmeterSeesPowerPhases) {
  // Compute then idle: the timeline must show the power stepping down.
  RunConfig config = mini_config(8);
  config.timeline_period_s = 0.002;
  const RunResult result = Runtime::run(config, [](Comm& comm) {
    comm.compute(ComputeCost{6.72e8, 0.0, 1.0});  // 10 ms busy
    if (comm.rank() == 0) {
      comm.compute(ComputeCost{6.72e8, 0.0, 1.0});  // others idle 10 ms
    }
  });
  const auto& samples = result.timeline[0].samples;
  ASSERT_GE(samples.size(), 8u);
  EXPECT_GT(samples[1].node_w(), samples[7].node_w());
}

TEST(XmpiRuntime, RankExceptionAbortsRunAndRethrows) {
  EXPECT_THROW(
      Runtime::run(mini_config(4),
                   [](Comm& comm) {
                     if (comm.rank() == 2) throw Error("rank 2 failed");
                     // Other ranks block forever on a message nobody
                     // sends; abort must wake them.
                     std::vector<double> buffer(4);
                     comm.recv(std::span<double>(buffer),
                               (comm.rank() + 1) % comm.size(), 0);
                   }),
      Error);
}

TEST(XmpiRuntime, SendToSelfIsRejected) {
  EXPECT_THROW(Runtime::run(mini_config(2),
                            [](Comm& comm) {
                              comm.send_value(1, comm.rank(), 0);
                            }),
               Error);
}

TEST(XmpiRuntime, ComputeRejectsInvalidCost) {
  EXPECT_THROW(Runtime::run(mini_config(1),
                            [](Comm& comm) {
                              comm.compute(ComputeCost{1.0, 0.0, 0.0});
                            }),
               Error);
  EXPECT_THROW(Runtime::run(mini_config(1),
                            [](Comm& comm) {
                              comm.compute(ComputeCost{-1.0, 0.0, 1.0});
                            }),
               Error);
}

TEST(XmpiRuntime, CrossNodeMessagesAreSlowerThanSameSocket) {
  // Measure the virtual time a ping-pong takes on each link class.
  auto pingpong_time = [](int peer) {
    double elapsed = 0.0;
    RunConfig config;
    config.machine = hw::mini_cluster(4, 4);
    config.placement =
        hw::make_placement(16, hw::LoadLayout::kFullLoad, config.machine);
    Runtime::run(
        config,
        [&, peer](Comm& comm) {
          const std::vector<double> data(1000, 1.0);
          std::vector<double> buffer(1000);
          if (comm.rank() == 0) {
            const double t0 = comm.now();
            comm.send(std::span<const double>(data), peer, 0);
            comm.recv(std::span<double>(buffer), peer, 0);
            elapsed = comm.now() - t0;
          } else if (comm.rank() == peer) {
            comm.recv(std::span<double>(buffer), 0, 0);
            comm.send(std::span<const double>(data), 0, 0);
          }
        });
    return elapsed;
  };
  const double same_socket = pingpong_time(1);   // ranks 0,1: socket 0
  const double cross_socket = pingpong_time(5);  // rank 5: socket 1, node 0
  const double cross_node = pingpong_time(9);    // rank 9: node 1
  EXPECT_LT(same_socket, cross_socket);
  EXPECT_LT(cross_socket, cross_node);
}

TEST(XmpiRuntime, DeterministicVirtualTimeAcrossRuns) {
  auto run_once = [] {
    return Runtime::run(mini_config(8), [](Comm& comm) {
      std::vector<double> data(256, comm.rank() * 1.0);
      for (int root = 0; root < comm.size(); ++root) {
        comm.bcast(std::span<double>(data), root);
        comm.compute(ComputeCost{1e7, 1e5, 0.5});
      }
      comm.barrier();
    });
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.traffic.data_messages, b.traffic.data_messages);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
  for (std::size_t i = 0; i < a.rank_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rank_times[i], b.rank_times[i]);
  }
}

}  // namespace
}  // namespace plin::xmpi
