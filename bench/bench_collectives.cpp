// Collective-schedule and transport benchmark: tree vs scalable schedules,
// and the heap allocations the payload pool removes.
//
// For each workload x rank count the harness runs the seed tree schedules
// and the scalable schedules (PLIN_XMPI_COLL=scalable equivalent) and
// records the virtual duration, the bytes funneled through rank 0
// (send + recv side, `TrafficCounters::through_bytes`), total message
// counts and host wall-clock. The tree schedule's pool acquires give the
// per-message allocation baseline the payload pool removes: without the
// pool every acquire would be a heap allocation, so `pool.acquires()` is
// the allocation count of a pool-less transport over the same deliveries.
//
// Output: a table plus `BENCH_collectives.json` (bench/harness.hpp
// schema). The bytes through rank 0 are deterministic, so each case's
// root_through_bytes is baselined exactly.
//
// Flags (bench/harness.hpp): --smoke for small rank counts; --check exits
// nonzero unless, at the largest rank count,
//   (a) the scalable allgather and allreduce move >= 2x less bytes through
//       rank 0 than the tree schedules, and
//   (b) the pool removes heap allocations (misses < acquires, summed
//       over the workloads),
// and, with --baseline, every root_through_bytes matches.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

#include "hwmodel/placement.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

xmpi::RunConfig harness_config(int ranks, xmpi::CollectiveMode collectives) {
  // Same fully loaded mini-cluster shape as bench_xmpi (2 sockets x 8
  // cores per node, just enough nodes for the rank count).
  constexpr int kCoresPerSocket = 8;
  const int nodes = (ranks + 2 * kCoresPerSocket - 1) / (2 * kCoresPerSocket);
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(std::max(nodes, 1), kCoresPerSocket);
  config.placement = hw::make_placement(ranks, hw::LoadLayout::kFullLoad,
                                        config.machine);
  config.transport.collectives = collectives;
  return config;
}

// ---- workloads -------------------------------------------------------------

/// Ring-friendly allgather: every rank contributes 256 doubles (2 KiB) and
/// receives the 256*P concatenation — the tree schedule funnels all of it
/// through rank 0 twice (gather then broadcast).
void allgather_blocks(xmpi::Comm& comm) {
  constexpr std::size_t kChunk = 256;
  std::vector<double> mine(kChunk, comm.rank() + 0.25);
  std::vector<double> all(kChunk * static_cast<std::size_t>(comm.size()));
  for (int round = 0; round < 2; ++round) {
    comm.allgather(std::span<const double>(mine), std::span<double>(all));
  }
}

/// Large-vector allreduce (4096 doubles = 32 KiB): the reduce-scatter +
/// allgather schedule's bandwidth-bound regime.
void allreduce_vector(xmpi::Comm& comm) {
  constexpr std::size_t kCount = 4096;
  std::vector<double> data(kCount, comm.rank() * 1e-3 + 1.0);
  std::vector<double> out(kCount);
  for (int round = 0; round < 2; ++round) {
    comm.allreduce(std::span<const double>(data), std::span<double>(out),
                   xmpi::ReduceOp::kSum);
  }
}

/// Scalar allreduce: the latency-bound regime (recursive doubling), the
/// shape solvers hit once per panel (pivot norms, convergence checks).
void allreduce_scalar(xmpi::Comm& comm) {
  double acc = comm.rank() * 0.5;
  for (int round = 0; round < 8; ++round) {
    acc = comm.allreduce_value(acc, xmpi::ReduceOp::kMax);
  }
}

/// Pivot-selection shape: allreduce_maxloc once per "panel".
void maxloc_rounds(xmpi::Comm& comm) {
  for (int round = 0; round < 8; ++round) {
    (void)comm.allreduce_maxloc(static_cast<double>((comm.rank() * 7 + round) %
                                                    comm.size()),
                                comm.rank());
  }
}

using Workload = void (*)(xmpi::Comm&);

struct WorkloadSpec {
  const char* name;
  Workload body;
  bool gated;  // participates in the --check root-bytes gate
};

constexpr WorkloadSpec kWorkloads[] = {
    {"allgather", allgather_blocks, true},
    {"allreduce", allreduce_vector, true},
    {"allreduce_small", allreduce_scalar, false},
    {"maxloc", maxloc_rounds, false},
};

// ---- measurement -----------------------------------------------------------

/// One mode of one workload: virtual + host timing and transport counters.
struct ModeSample {
  double duration_s = 0.0;      // virtual
  double host_s = 0.0;          // best-of-N wall clock
  std::uint64_t root_bytes = 0;  // rank 0 through_bytes()
  std::uint64_t messages = 0;   // world total (send-side)
  std::uint64_t allocs = 0;     // payload-pool misses = heap allocations
  std::uint64_t pool_hits = 0;
  std::uint64_t acquires = 0;   // heap allocations without the pool
  std::uint64_t rendezvous = 0;
};

ModeSample sample(const WorkloadSpec& spec, int ranks,
                  xmpi::CollectiveMode collectives) {
  const xmpi::RunConfig config = harness_config(ranks, collectives);
  ModeSample out;
  const auto once = [&] {
    const xmpi::RunResult run = xmpi::Runtime::run(config, spec.body);
    out.duration_s = run.duration_s;
    out.root_bytes = run.rank_traffic.empty()
                         ? 0
                         : run.rank_traffic.front().through_bytes();
    out.messages = run.traffic.data_messages + run.traffic.control_messages;
    out.allocs = run.transport.pool.misses;
    out.pool_hits = run.transport.pool.hits;
    out.acquires = run.transport.pool.acquires();
    out.rendezvous = run.transport.rendezvous_messages;
  };
  out.host_s = bench::best_seconds(once, {0.0, 3, 3, 1.0, 1});
  return out;
}

struct CaseResult {
  std::string workload;
  int ranks = 0;
  bool gated = false;
  ModeSample tree;
  ModeSample scalable;

  double root_ratio() const {
    return scalable.root_bytes > 0
               ? static_cast<double>(tree.root_bytes) /
                     static_cast<double>(scalable.root_bytes)
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("collectives", argc, argv);
  const std::vector<int> rank_counts =
      h.smoke() ? std::vector<int>{48, 144} : std::vector<int>{144, 576};

  std::vector<CaseResult> results;
  for (const WorkloadSpec& spec : kWorkloads) {
    for (const int ranks : rank_counts) {
      CaseResult r;
      r.workload = spec.name;
      r.ranks = ranks;
      r.gated = spec.gated;
      r.tree = sample(spec, ranks, xmpi::CollectiveMode::kTree);
      r.scalable = sample(spec, ranks, xmpi::CollectiveMode::kScalable);
      results.push_back(std::move(r));
    }
  }

  std::printf("%-16s %6s | %14s %14s %7s | %10s %10s %10s\n", "workload",
              "ranks", "tree root B", "scal root B", "ratio", "acquires",
              "misses", "rndzvs");
  for (const CaseResult& r : results) {
    std::printf("%-16s %6d | %14llu %14llu %6.2fx | %10llu %10llu %10llu\n",
                r.workload.c_str(), r.ranks,
                static_cast<unsigned long long>(r.tree.root_bytes),
                static_cast<unsigned long long>(r.scalable.root_bytes),
                r.root_ratio(),
                static_cast<unsigned long long>(r.tree.acquires),
                static_cast<unsigned long long>(r.tree.allocs),
                static_cast<unsigned long long>(r.tree.rendezvous));
  }
  std::printf("\n");

  for (const CaseResult& r : results) {
    const std::string prefix = r.workload + "." + std::to_string(r.ranks);
    for (const auto& [mode, m] :
         {std::pair{"tree", r.tree}, std::pair{"scalable", r.scalable}}) {
      const std::string key = prefix + "." + mode;
      h.record(key + ".duration_s", m.duration_s, "s",
               bench::Clock::kVirtual);
      h.record(key + ".root_through_bytes",
               static_cast<double>(m.root_bytes), "bytes",
               bench::Clock::kNone, bench::exact());
      h.record(key + ".messages", static_cast<double>(m.messages), "count",
               bench::Clock::kNone);
      h.record(key + ".alloc_count", static_cast<double>(m.allocs), "count",
               bench::Clock::kNone);
      h.record(key + ".pool_hits", static_cast<double>(m.pool_hits), "count",
               bench::Clock::kNone);
      h.record(key + ".rendezvous_messages",
               static_cast<double>(m.rendezvous), "count",
               bench::Clock::kNone);
      h.record(key + ".host_s", m.host_s, "s", bench::Clock::kHost);
    }
    h.record(prefix + ".root_bytes_ratio", r.root_ratio(), "ratio",
             bench::Clock::kNone);
    h.record(prefix + ".pool_off_alloc_count",
             static_cast<double>(r.tree.acquires), "count",
             bench::Clock::kNone);
  }

  const int largest = rank_counts.back();
  // Rendezvous delivery already bypasses the allocator for most exact-match
  // receives, so the pool's remaining win is gated in aggregate over the
  // whole sweep rather than per workload (any single case can legitimately
  // go ~all-rendezvous under favourable host scheduling).
  std::uint64_t misses = 0;
  std::uint64_t acquires = 0;
  char detail[160];
  for (const CaseResult& r : results) {
    if (r.ranks != largest) continue;
    misses += r.tree.allocs;
    acquires += r.tree.acquires;
    if (!r.gated) continue;
    std::snprintf(detail, sizeof(detail),
                  "%s at %d ranks moves %.2fx less data through rank 0 with "
                  "the scalable schedule (need >= 2x)",
                  r.workload.c_str(), r.ranks, r.root_ratio());
    h.gate(r.workload + "-root-bytes>=2x", r.root_ratio() >= 2.0, detail);
  }
  std::snprintf(detail, sizeof(detail),
                "pool misses %llu vs %llu acquires (pool-less allocations) "
                "at %d ranks",
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(acquires), largest);
  h.gate("pool-removes-allocations", misses < acquires, detail);
  return h.finish();
}
