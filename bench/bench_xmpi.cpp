// xmpi runtime perf-regression harness.
//
// Sweeps paper-scale rank counts over runtime-dominated workloads (world
// spawn, spawn+collectives, ring point-to-point, fan-in gather) on the
// worker pool, prints a host wall-clock table and writes `BENCH_xmpi.json`
// (bench/harness.hpp schema) so runtime performance has a recorded
// trajectory. Two scheduler latencies ride along: `pingpong_cross_us`, one
// round trip of a 2-rank ping-pong on 2 workers, and `park_resume_ns`, the
// host time per park→resume of a 2-rank ping-pong on 1 worker. Host
// timings only: the harness has no --check.
//
// Flags (bench/harness.hpp): --smoke for small rank counts.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rss.hpp"

#include "hwmodel/placement.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

xmpi::RunConfig harness_config(int ranks) {
  // Fully loaded mini-cluster nodes (2 sockets x 8 cores), just enough
  // nodes to hold the rank count — 1296 ranks ⇒ 81 nodes, the paper's
  // largest campaign scale.
  constexpr int kCoresPerSocket = 8;
  const int nodes = (ranks + 2 * kCoresPerSocket - 1) / (2 * kCoresPerSocket);
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(std::max(nodes, 1), kCoresPerSocket);
  config.placement = hw::make_placement(ranks, hw::LoadLayout::kFullLoad,
                                        config.machine);
  return config;
}

void spawn_only(xmpi::Comm&) {}

/// The acceptance workload: repeated barrier + broadcast + allreduce rounds,
/// which in the pool exercises park/resume on every collective hop.
void spawn_collective(xmpi::Comm& comm) {
  double value = comm.rank() == 0 ? 1.5 : 0.0;
  for (int round = 0; round < 4; ++round) {
    comm.barrier();
    comm.bcast_value(value, /*root=*/0);
    (void)comm.allreduce_value(1.0, xmpi::ReduceOp::kSum);
  }
}

/// Neighbour ring: point-to-point heavy, every rank parks in recv.
void ring_exchange(xmpi::Comm& comm) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  for (int round = 0; round < 8; ++round) {
    comm.send_value(comm.rank() + round, next, /*tag=*/1);
    (void)comm.recv_value<int>(prev, /*tag=*/1);
  }
}

/// Rank 0 receives one message from every peer in rank order — the
/// indexed mailbox's exact lookup plus targeted wakeup under maximal
/// fan-in.
void fan_in_gather(xmpi::Comm& comm) {
  if (comm.rank() == 0) {
    for (int peer = 1; peer < comm.size(); ++peer) {
      (void)comm.recv_value<int>(peer, /*tag=*/peer % 7);
    }
  } else {
    comm.send_value(comm.rank(), 0, /*tag=*/comm.rank() % 7);
  }
}

using Workload = void (*)(xmpi::Comm&);

struct WorkloadSpec {
  const char* name;
  Workload body;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"spawn", spawn_only},
    {"spawn+collective", spawn_collective},
    {"ring", ring_exchange},
    {"fan_in_gather", fan_in_gather},
};

struct HarnessResult {
  std::string workload;
  int ranks = 0;
  double pool_s = 0.0;
  std::size_t pool_workers = 0;
  // Payload-pool behaviour of one run (last timed repetition): misses are
  // actual heap allocations, hits are recycled buffers, peak is the high
  // watermark of live payload bytes.
  std::uint64_t alloc_count = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t peak_payload_bytes = 0;
  // Max RSS sampled *during* the pool runs (bench/rss.hpp). VmHWM would be
  // monotonic across the whole sweep and so attribute the largest earlier
  // case to every later row.
  std::uint64_t peak_rss_bytes = 0;
};

HarnessResult measure(const WorkloadSpec& spec, int ranks) {
  HarnessResult result;
  result.workload = spec.name;
  result.ranks = ranks;

  const xmpi::RunConfig pool_config = harness_config(ranks);
  std::size_t workers = 0;
  {
    plin::bench::RssSampler rss;
    result.pool_s = bench::best_seconds([&] {
      const xmpi::RunResult run = xmpi::Runtime::run(pool_config, spec.body);
      workers = run.host_workers;
      result.alloc_count = run.transport.pool.misses;
      result.pool_hits = run.transport.pool.hits;
      result.peak_payload_bytes = run.transport.pool.peak_payload_bytes;
      bench::keep(run.duration_s);
    });
    rss.stop();
    result.peak_rss_bytes = rss.peak_bytes();
  }
  result.pool_workers = workers;
  return result;
}

/// Two ranks bounce one int `rounds` times: every receive parks its rank,
/// every send wakes the other one.
xmpi::RunResult ping_pong(int rounds, std::size_t workers) {
  xmpi::RunConfig config = harness_config(2);
  config.workers = workers;
  return xmpi::Runtime::run(config, [rounds](xmpi::Comm& comm) {
    const int peer = 1 - comm.rank();
    for (int round = 0; round < rounds; ++round) {
      if (comm.rank() == 0) {
        comm.send_value(round, peer, /*tag=*/1);
        (void)comm.recv_value<int>(peer, /*tag=*/1);
      } else {
        (void)comm.recv_value<int>(peer, /*tag=*/1);
        comm.send_value(round, peer, /*tag=*/1);
      }
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("xmpi", argc, argv, {}, /*checks=*/false);

  // Paper campaign scales (1296 ranks on N host workers).
  const std::vector<int> rank_counts =
      h.smoke() ? std::vector<int>{48, 144} : std::vector<int>{144, 576, 1296};

  std::vector<HarnessResult> results;
  for (const WorkloadSpec& spec : kWorkloads) {
    for (const int ranks : rank_counts) {
      results.push_back(measure(spec, ranks));
    }
  }

  std::printf("%-18s %6s %8s | %12s\n", "workload", "ranks", "workers",
              "pool s");
  for (const HarnessResult& r : results) {
    std::printf("%-18s %6d %8zu | %12.6f\n", r.workload.c_str(), r.ranks,
                r.pool_workers, r.pool_s);
    const std::string prefix = r.workload + "." + std::to_string(r.ranks);
    h.record(prefix + ".pool_s", r.pool_s, "s", bench::Clock::kHost);
    h.record(prefix + ".pool_workers", static_cast<double>(r.pool_workers),
             "count", bench::Clock::kNone);
    h.record(prefix + ".alloc_count", static_cast<double>(r.alloc_count),
             "count", bench::Clock::kNone);
    h.record(prefix + ".pool_hits", static_cast<double>(r.pool_hits),
             "count", bench::Clock::kNone);
    h.record(prefix + ".peak_payload_bytes",
             static_cast<double>(r.peak_payload_bytes), "bytes",
             bench::Clock::kNone);
    h.record(prefix + ".peak_rss_bytes",
             static_cast<double>(r.peak_rss_bytes), "bytes",
             bench::Clock::kNone);
  }
  std::printf("\n");

  const int rounds = h.smoke() ? 5000 : 50000;
  const double cross_s =
      bench::best_seconds([&] { bench::keep(ping_pong(rounds, 2).duration_s); });
  std::uint64_t parks = 0;
  const double local_s = bench::best_seconds([&] {
    const xmpi::RunResult run = ping_pong(rounds, 1);
    parks = run.host_parks;
    bench::keep(run.duration_s);
  });
  const double pingpong_cross_us = cross_s / rounds * 1e6;
  const double park_resume_ns =
      local_s / static_cast<double>(std::max<std::uint64_t>(parks, 1)) * 1e9;
  std::printf("ping-pong, %d rounds: %.3f us per round trip on 2 workers, "
              "%.1f ns per park->resume on 1 worker (%llu parks)\n\n",
              rounds, pingpong_cross_us, park_resume_ns,
              static_cast<unsigned long long>(parks));
  h.record("pingpong_cross_us", pingpong_cross_us, "us", bench::Clock::kHost);
  h.record("park_resume_ns", park_resume_ns, "ns", bench::Clock::kHost);
  return h.finish();
}
