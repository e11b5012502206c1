// Tests for the worker-pool scheduler: bit-identical results across worker
// counts (up to one worker per rank), wake-versus-park races, abort
// propagation into parked ranks, deadlock detection (and no false one),
// the 1-worker FIFO dispatch order, the 1-rank inline fast path, the
// worker-count knob and the channel-indexed mailbox.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hwmodel/placement.hpp"
#include "xmpi/runtime.hpp"

namespace plin::xmpi {
namespace {

RunConfig mini_config(int ranks,
                      hw::LoadLayout layout = hw::LoadLayout::kFullLoad,
                      int cores_per_socket = 4) {
  RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/64, cores_per_socket);
  config.placement = hw::make_placement(ranks, layout, config.machine);
  return config;
}

/// A deliberately scheduler-hostile campaign: mixed unequal compute, a
/// fan-in to rank 0, several collectives, node-split and color-split
/// sub-communicators, and nonblocking traffic.
void mixed_campaign(Comm& comm) {
  const int rank = comm.rank();
  const int size = comm.size();

  comm.compute(ComputeCost{1.0e6 * (rank + 1), 4096.0 * (rank % 3)});

  // Fan-in: rank 0 receives one message per peer, in rank order, after a
  // barrier that every peer enters only once its send is queued.
  if (rank == 0) {
    comm.barrier();
    long long sum = 0;
    for (int peer = 1; peer < size; ++peer) {
      sum += comm.recv_value<long long>(peer, /*tag=*/100 + peer % 5);
    }
    EXPECT_EQ(sum, static_cast<long long>(size) * (size - 1) / 2);
  } else {
    comm.send_value(static_cast<long long>(rank), 0, /*tag=*/100 + rank % 5);
    comm.barrier();
  }

  double seed = rank == 0 ? 41.5 : 0.0;
  comm.bcast_value(seed, /*root=*/0);
  EXPECT_EQ(seed, 41.5);

  const double total = comm.allreduce_value(static_cast<double>(rank),
                                            ReduceOp::kSum);
  EXPECT_EQ(total, static_cast<double>(size) * (size - 1) / 2.0);

  Comm halves = comm.split(rank % 2, rank);
  const auto maxloc = halves.allreduce_maxloc(
      static_cast<double>(halves.rank()), halves.rank());
  EXPECT_EQ(maxloc.index, halves.size() - 1);

  Comm node_comm = comm.split_shared_node();
  node_comm.barrier();
  if (node_comm.size() > 1) {
    if (node_comm.rank() == 0) {
      std::vector<int> got(static_cast<std::size_t>(node_comm.size() - 1));
      std::vector<Request> requests;
      for (int peer = 1; peer < node_comm.size(); ++peer) {
        requests.push_back(node_comm.irecv(
            std::span<int>(&got[static_cast<std::size_t>(peer - 1)], 1),
            peer, /*tag=*/7));
      }
      wait_all(requests);
      for (int peer = 1; peer < node_comm.size(); ++peer) {
        EXPECT_EQ(got[static_cast<std::size_t>(peer - 1)], peer);
      }
    } else {
      node_comm.send_value(node_comm.rank(), 0, /*tag=*/7);
    }
  }

  comm.memory_touch(64.0 * 1024.0);
  comm.idle_wait(1.0e-6 * ((rank * 7) % 11));
  comm.barrier();
}

void expect_identical(const RunResult& a, const RunResult& b) {
  // Exact (bit-level) equality everywhere: the executor must not leak into
  // any simulated quantity.
  EXPECT_EQ(a.duration_s, b.duration_s);
  ASSERT_EQ(a.rank_times.size(), b.rank_times.size());
  for (std::size_t i = 0; i < a.rank_times.size(); ++i) {
    EXPECT_EQ(a.rank_times[i], b.rank_times[i]) << "rank " << i;
  }
  EXPECT_EQ(a.traffic.data_messages, b.traffic.data_messages);
  EXPECT_EQ(a.traffic.data_bytes, b.traffic.data_bytes);
  EXPECT_EQ(a.traffic.control_messages, b.traffic.control_messages);
  EXPECT_EQ(a.traffic.control_bytes, b.traffic.control_bytes);
  ASSERT_EQ(a.energy.nodes.size(), b.energy.nodes.size());
  for (std::size_t n = 0; n < a.energy.nodes.size(); ++n) {
    ASSERT_EQ(a.energy.nodes[n].packages.size(),
              b.energy.nodes[n].packages.size());
    for (std::size_t p = 0; p < a.energy.nodes[n].packages.size(); ++p) {
      EXPECT_EQ(a.energy.nodes[n].packages[p].pkg_j,
                b.energy.nodes[n].packages[p].pkg_j)
          << "node " << n << " pkg " << p;
      EXPECT_EQ(a.energy.nodes[n].packages[p].dram_j,
                b.energy.nodes[n].packages[p].dram_j)
          << "node " << n << " pkg " << p;
    }
  }
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.membound_s, b.membound_s);
  EXPECT_EQ(a.commactive_s, b.commactive_s);
  EXPECT_EQ(a.commwait_s, b.commwait_s);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct CampaignRun {
  RunResult result;
  std::string trace;
};

CampaignRun run_campaign(int ranks, hw::LoadLayout layout,
                         std::size_t workers, const std::string& trace_tag) {
  RunConfig config = mini_config(ranks, layout);
  config.workers = workers;
  const auto trace_path = std::filesystem::temp_directory_path() /
                          ("xmpi_sched_" + trace_tag + ".json");
  config.chrome_trace_path = trace_path.string();
  CampaignRun run;
  run.result = Runtime::run(config, mixed_campaign);
  run.trace = slurp(trace_path);
  std::filesystem::remove(trace_path);
  EXPECT_FALSE(run.trace.empty());
  return run;
}

TEST(XmpiScheduler, WorkerCountsProduceBitIdenticalResults) {
  for (const hw::LoadLayout layout :
       {hw::LoadLayout::kFullLoad, hw::LoadLayout::kHalfLoadTwoSockets}) {
    const CampaignRun one = run_campaign(16, layout, 1, "w1");
    const CampaignRun four = run_campaign(16, layout, 4, "w4");
    const CampaignRun hardware = run_campaign(16, layout, 0, "whw");
    expect_identical(one.result, four.result);
    expect_identical(one.result, hardware.result);
    EXPECT_EQ(one.trace, four.trace);
    EXPECT_EQ(one.trace, hardware.trace);
    EXPECT_EQ(four.result.host_workers, 4u);
  }
}

TEST(XmpiScheduler, PoolMatchesThreadPerRankBitForBit) {
  // workers = ranks gives every rank its own host thread: the maximum host
  // concurrency the pool can run at.
  const CampaignRun pool =
      run_campaign(16, hw::LoadLayout::kFullLoad, 4, "pool");
  const CampaignRun threads =
      run_campaign(16, hw::LoadLayout::kFullLoad, 16, "threads");
  EXPECT_EQ(pool.result.host_executor, "pool");
  EXPECT_EQ(threads.result.host_executor, "pool");
  EXPECT_EQ(threads.result.host_workers, 16u);
  expect_identical(pool.result, threads.result);
  EXPECT_EQ(pool.trace, threads.trace);
}

TEST(XmpiScheduler, RepeatedPoolRunsAreBitIdentical) {
  const CampaignRun first =
      run_campaign(12, hw::LoadLayout::kFullLoad, 3, "r1");
  const CampaignRun second =
      run_campaign(12, hw::LoadLayout::kFullLoad, 3, "r2");
  expect_identical(first.result, second.result);
  EXPECT_EQ(first.trace, second.trace);
}

TEST(XmpiScheduler, SingleRankWorldRunsInlineOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen{};
  const RunResult result = Runtime::run(mini_config(1), [&](Comm& comm) {
    seen = std::this_thread::get_id();
    comm.compute(ComputeCost{1.0e6, 0.0});
  });
  EXPECT_EQ(seen, caller);
  EXPECT_EQ(result.host_executor, "inline");
  EXPECT_EQ(result.host_workers, 1u);
}

TEST(XmpiScheduler, EnvVariableSelectsWorkers) {
  ASSERT_EQ(setenv("PLIN_XMPI_WORKERS", "3", 1), 0);
  RunResult result =
      Runtime::run(mini_config(4), [](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(result.host_executor, "pool");
  EXPECT_EQ(result.host_workers, 3u);

  // Explicit config wins over the environment.
  RunConfig config = mini_config(4);
  config.workers = 2;
  result = Runtime::run(config, [](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(result.host_workers, 2u);

  // More workers than ranks clamp to one worker per rank.
  ASSERT_EQ(setenv("PLIN_XMPI_WORKERS", "64", 1), 0);
  result = Runtime::run(mini_config(4), [](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(result.host_workers, 4u);

  ASSERT_EQ(unsetenv("PLIN_XMPI_WORKERS"), 0);
}

TEST(XmpiScheduler, TinyStackRequestIsClampedAndRuns) {
  RunConfig config = mini_config(8);
  config.fiber_stack_bytes = 1024;  // clamped up to a safe minimum
  const RunResult result = Runtime::run(config, mixed_campaign);
  EXPECT_GT(result.duration_s, 0.0);
}

struct CampaignError : std::runtime_error {
  CampaignError() : std::runtime_error("rank 5 exploded") {}
};

/// One rank throws while every other rank is parked in a receive that will
/// never be satisfied; the abort must wake all of them with Aborted and the
/// original exception must surface from run().
void aborting_campaign(Comm& comm) {
  if (comm.rank() == 5) {
    // Give peers virtual time to reach their receives first; host-side the
    // pool may park them in any order, which is the point of the test.
    comm.idle_wait(1.0e-3);
    throw CampaignError();
  }
  (void)comm.recv_value<int>((comm.rank() + 1) % comm.size(),
                             /*tag=*/424242);
  FAIL() << "receive of a never-sent message returned";
}

TEST(XmpiScheduler, AbortUnparksEveryRankInPool) {
  RunConfig config = mini_config(12);
  config.workers = 4;
  EXPECT_THROW(Runtime::run(config, aborting_campaign), CampaignError);
}

TEST(XmpiScheduler, AbortUnparksEveryRankWithOneWorkerPerRank) {
  RunConfig config = mini_config(12);
  config.workers = 12;
  EXPECT_THROW(Runtime::run(config, aborting_campaign), CampaignError);
}

/// Runs `rank_main` and expects the deadlock diagnosis, not a bare Aborted
/// and not a hang.
void expect_deadlock(const RunConfig& config,
                     const Runtime::RankMain& rank_main) {
  try {
    Runtime::run(config, rank_main);
    FAIL() << "deadlocked run returned";
  } catch (const Aborted&) {
    FAIL() << "deadlock surfaced as a bare Aborted instead of a diagnosis";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("deadlock"), std::string::npos);
  }
}

TEST(XmpiScheduler, DeadlockIsDetectedAndDiagnosed) {
  for (const std::size_t workers : {1, 2, 4, 16}) {
    SCOPED_TRACE(workers);
    RunConfig config = mini_config(16);
    config.workers = workers;
    // Everyone receives, nobody sends: a guaranteed communication deadlock.
    expect_deadlock(config, [](Comm& comm) {
      (void)comm.recv_value<int>((comm.rank() + 1) % comm.size(), /*tag=*/1);
    });
    // Half the ranks finish first: the last finish, not a park, is what
    // leaves the pool with nothing runnable.
    expect_deadlock(config, [](Comm& comm) {
      if (comm.rank() % 2 == 0) return;
      (void)comm.recv_value<int>(comm.rank() - 1, /*tag=*/2);
    });
  }
}

TEST(XmpiScheduler, SingleRankDeadlockIsDetectedAndDiagnosed) {
  // The inline path has no scheduler, but its only rank is also the only
  // possible sender, so an unmatched receive must fail the same way.
  expect_deadlock(mini_config(1), [](Comm& comm) {
    (void)comm.recv_value<int>(/*src=*/0, /*tag=*/424242);
  });
}

TEST(XmpiScheduler, ManyMoreRanksThanWorkersComplete) {
  RunConfig config = mini_config(96, hw::LoadLayout::kFullLoad,
                                 /*cores_per_socket=*/4);
  config.workers = 2;
  const RunResult result = Runtime::run(config, [](Comm& comm) {
    // Ring neighbour exchange forces every rank through park/resume.
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send_value(comm.rank(), next, /*tag=*/3);
    EXPECT_EQ(comm.recv_value<int>(prev, /*tag=*/3), prev);
    comm.barrier();
  });
  EXPECT_EQ(result.rank_times.size(), 96u);
  EXPECT_EQ(result.host_workers, 2u);
}

/// Every rank exchanges with both ring neighbours and a far peer, then
/// joins an allreduce, several rounds over: wakes land on ranks that are
/// running, mid-switch-out, parked and queued, from every worker.
void wake_park_storm(Comm& comm) {
  const int size = comm.size();
  const int rank = comm.rank();
  double acc = rank;
  for (int round = 0; round < 3; ++round) {
    const int step = 1 + round * 7 % (size - 1);
    const int to = (rank + step) % size;
    const int from = (rank + size - step) % size;
    comm.compute(ComputeCost{1.0e4 * (1 + (rank + round) % 5), 0.0});
    Request send = comm.isend(std::span<const double>(&acc, 1), to, round);
    double got = 0.0;
    comm.recv(std::span<double>(&got, 1), from, round);
    send.wait();
    acc = 0.5 * acc + got;
    acc = comm.allreduce_value(acc, ReduceOp::kSum) / size;
  }
  EXPECT_GT(acc, 0.0);
}

TEST(XmpiScheduler, WakeParkRaceStressIsBitIdenticalAtEveryWorkerCount) {
  for (const int ranks : {64, 576}) {
    RunConfig config = mini_config(ranks, hw::LoadLayout::kFullLoad,
                                   /*cores_per_socket=*/8);
    config.workers = 1;
    const RunResult reference = Runtime::run(config, wake_park_storm);
    for (const std::size_t workers : {2, 4, 16}) {
      for (int repeat = 0; repeat < 3; ++repeat) {
        SCOPED_TRACE(testing::Message() << ranks << " ranks, " << workers
                                        << " workers, repeat " << repeat);
        config.workers = workers;
        const RunResult result = Runtime::run(config, wake_park_storm);
        EXPECT_EQ(result.host_workers, workers);
        expect_identical(reference, result);
      }
    }
  }
}

TEST(XmpiScheduler, RankBusyOnTheHostIsNoDeadlock) {
  // Rank 0 spends host time while every other rank is parked waiting for
  // it: the pool has one running fiber and nothing ready, which must not
  // read as a deadlock.
  RunConfig config = mini_config(16);
  config.workers = 4;
  for (int repeat = 0; repeat < 50; ++repeat) {
    SCOPED_TRACE(repeat);
    const RunResult result = Runtime::run(config, [](Comm& comm) {
      if (comm.rank() == 0) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(200);
        while (std::chrono::steady_clock::now() < until) {
        }
        for (int peer = 1; peer < comm.size(); ++peer) {
          comm.send_value(peer, peer, /*tag=*/5);
        }
      } else {
        EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/5), comm.rank());
      }
    });
    EXPECT_EQ(result.rank_times.size(), 16u);
  }
}

TEST(XmpiScheduler, OneWorkerDispatchesInWakeOrder) {
  // Ranks start in index order. Rank 0 parks on the last rank, which wakes
  // it and parks in turn; rank 0 then wakes the others in reverse order,
  // the last rank after them. One worker must resume them exactly in that
  // wake order.
  constexpr int kRanks = 8;
  RunConfig config = mini_config(kRanks);
  config.workers = 1;
  std::mutex mutex;
  std::vector<int> order;
  const auto note = [&](int event) {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(event);
  };
  Runtime::run(config, [&](Comm& comm) {
    const int rank = comm.rank();
    const int last = comm.size() - 1;
    note(rank);
    if (rank == 0) {
      (void)comm.recv_value<int>(last, /*tag=*/1);
      note(100);
      for (int peer = last - 1; peer >= 1; --peer) {
        comm.send_value(peer, peer, /*tag=*/2);
      }
      comm.send_value(last, last, /*tag=*/2);
      return;
    }
    if (rank == last) comm.send_value(rank, 0, /*tag=*/1);
    EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/2), rank);
    note(100 + rank);
  });
  const std::vector<int> expected = {0,   1,   2,   3,   4,   5,   6,  7,
                                     100, 106, 105, 104, 103, 102, 101, 107};
  EXPECT_EQ(order, expected);
}

// -- channel-indexed mailbox unit tests ------------------------------------

Envelope make_envelope(int src, int tag, std::uint64_t context,
                       double arrival) {
  Envelope envelope;
  envelope.src = src;
  envelope.tag = tag;
  envelope.context = context;
  envelope.arrival_time = arrival;
  return envelope;
}

TEST(XmpiMailbox, ExactMatchKeepsPerChannelFifoOrder) {
  Mailbox mailbox;
  std::atomic<bool> abort{false};
  mailbox.post(make_envelope(2, 9, 1, 3.0));
  mailbox.post(make_envelope(2, 9, 1, 1.0));  // later post, earlier arrival
  mailbox.post(make_envelope(2, 8, 1, 0.5));  // different channel
  EXPECT_EQ(mailbox.match(2, 9, 1, abort).arrival_time, 3.0);
  EXPECT_EQ(mailbox.match(2, 9, 1, abort).arrival_time, 1.0);
  EXPECT_EQ(mailbox.match(2, 8, 1, abort).arrival_time, 0.5);
}

TEST(XmpiMailbox, ProbeMatchesWithoutRemoving) {
  Mailbox mailbox;
  std::atomic<bool> abort{false};
  EXPECT_FALSE(mailbox.probe(0, 1, 1));
  mailbox.post(make_envelope(0, 1, 1, 1.0));
  EXPECT_TRUE(mailbox.probe(0, 1, 1));
  EXPECT_FALSE(mailbox.probe(1, 1, 1));  // other source
  EXPECT_FALSE(mailbox.probe(0, 2, 1));
  EXPECT_FALSE(mailbox.probe(0, 1, 2));  // other context
  (void)mailbox.match(0, 1, 1, abort);
  EXPECT_FALSE(mailbox.probe(0, 1, 1));
}

TEST(XmpiMailbox, InterruptWakesBlockedMatcherWithAborted) {
  Mailbox mailbox;
  std::atomic<bool> abort{false};
  std::thread receiver([&] {
    EXPECT_THROW((void)mailbox.match(0, 1, 1, abort), Aborted);
  });
  // Let the receiver block, then abort: interrupt must wake it even though
  // no envelope ever matched its registration.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  abort.store(true);
  mailbox.interrupt();
  receiver.join();
}

TEST(XmpiMailbox, TargetedWakeupDeliversAcrossThreads) {
  Mailbox mailbox;
  std::atomic<bool> abort{false};
  std::thread receiver([&] {
    const Envelope envelope = mailbox.match(7, 3, 1, abort);
    EXPECT_EQ(envelope.arrival_time, 9.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mailbox.post(make_envelope(7, 4, 1, 1.0));  // non-matching: no wake needed
  mailbox.post(make_envelope(7, 3, 1, 9.0));  // matching: targeted notify
  receiver.join();
}

}  // namespace
}  // namespace plin::xmpi
