// 100k-virtual-rank scale harness: gates the compact-rank-state work.
//
// Measures, at a deterministic campaign point of N ranks (default 100000,
// --smoke drops to 10000 for CI):
//
//   1. bytes_per_rank_state — RSS growth of constructing the full rank
//      state (placement + World + FiberScheduler) divided by N. Fiber
//      stacks are leased lazily at first dispatch, so this is exactly the
//      steady-state footprint *excluding live fiber stacks* that the
//      acceptance criterion bounds at 4 KiB/rank.
//   2. spawn_ranks_per_s — throughput of running an empty rank body on
//      every rank through the worker pool (stack lease, context setup,
//      dispatch, recycle).
//   3. allreduce wall time — 64 doubles under the scalable schedules
//      (recursive doubling at this count), verified in-harness.
//   4. allgather wall time — 1 byte per rank under the scalable schedules
//      (Bruck above 128 ranks), verified in-harness.
//
// Peak RSS of phases 3/4 is sampled by bench/rss.hpp; the process-wide
// StackPool counters round out the report. Everything lands in
// BENCH_scale.json (bench/harness.hpp schema).
//
// Flags (bench/harness.hpp): --smoke for 10000 ranks instead of 100000;
// --ranks=N for an explicit rank count (overrides --smoke / default);
// --check exits nonzero unless bytes_per_rank_state <= 4096 and, with
// --baseline, <= 1.2x the baseline value. Wrong collective results fail the
// run with or without --check.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "rss.hpp"

#include "hwmodel/placement.hpp"
#include "xmpi/runtime.hpp"
#include "xmpi/scheduler.hpp"
#include "xmpi/stackpool.hpp"
#include "xmpi/world.hpp"

namespace {

using namespace plin;

/// Same mini-cluster shape as bench_xmpi: fully loaded 2x8-core nodes,
/// just enough of them to hold the rank count (100000 ranks => 6250 nodes).
xmpi::RunConfig scale_config(int ranks) {
  constexpr int kCoresPerSocket = 8;
  const int nodes = (ranks + 2 * kCoresPerSocket - 1) / (2 * kCoresPerSocket);
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(std::max(nodes, 1), kCoresPerSocket);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  // The whole point of this harness: the scalable schedule family at a
  // non-power-of-two rank count.
  config.transport.collectives = xmpi::CollectiveMode::kScalable;
  return config;
}

struct Report {
  int ranks = 0;
  std::uint64_t rank_state_total_bytes = 0;
  double bytes_per_rank_state = 0.0;
  double spawn_s = 0.0;
  double spawn_ranks_per_s = 0.0;
  double allreduce_s = 0.0;
  std::uint64_t allreduce_peak_rss_bytes = 0;
  double allgather_s = 0.0;
  std::uint64_t allgather_peak_rss_bytes = 0;
  xmpi::StackPool::Stats stacks;
};

/// RSS growth of materializing every per-rank structure without running
/// anything: placement, World (slab RankState array, mailboxes, layout,
/// ledgers) and the FiberScheduler task table. No fiber is dispatched, so
/// no stack is leased — matching the "excluding live fiber stacks" wording
/// of the acceptance criterion.
std::uint64_t measure_rank_state_bytes(int ranks) {
  const std::uint64_t rss0 = bench::current_rss_bytes();
  const xmpi::RunConfig config = scale_config(ranks);
  xmpi::World world(config.machine, config.placement);
  world.configure_transport(config.transport);
  std::vector<xmpi::FiberScheduler::Task> tasks;
  tasks.reserve(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    xmpi::FiberScheduler::Task task;
    task.body = [] {};
    task.hw = &world.rank_state(rank).hw_context;
    tasks.push_back(std::move(task));
  }
  xmpi::FiberScheduler scheduler(std::move(tasks),
                                 xmpi::FiberScheduler::Options{});
  const std::uint64_t rss1 = bench::current_rss_bytes();
  return rss1 > rss0 ? rss1 - rss0 : 0;
}

/// Rank body for the allreduce leg: element 0 carries the rank id, the
/// rest carry 1.0. Both reductions are integer-valued and well inside
/// 2^53, so the expected sums are exact in double and a bitwise mismatch
/// means a broken schedule, not rounding.
void allreduce_body(xmpi::Comm& comm, std::atomic<int>& failures) {
  constexpr std::size_t kCount = 64;
  const int p = comm.size();
  std::vector<double> data(kCount, 1.0);
  data[0] = static_cast<double>(comm.rank());
  std::vector<double> out(kCount, 0.0);
  comm.allreduce(std::span<const double>(data), std::span<double>(out),
                 xmpi::ReduceOp::kSum);
  const double expected0 =
      static_cast<double>(p) * static_cast<double>(p - 1) / 2.0;
  bool ok = out[0] == expected0;
  for (std::size_t i = 1; ok && i < kCount; ++i) {
    ok = out[i] == static_cast<double>(p);
  }
  if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
}

/// Rank body for the allgather leg: one byte per rank. Boundary ranks
/// verify the full vector; everyone else spot-checks (a full check on all
/// ranks would be O(P^2) host work at 100k ranks).
void allgather_body(xmpi::Comm& comm, std::atomic<int>& failures) {
  const int p = comm.size();
  const auto tag = [](int rank) {
    return static_cast<std::uint8_t>(rank & 0xff);
  };
  const std::uint8_t mine = tag(comm.rank());
  std::vector<std::uint8_t> out(static_cast<std::size_t>(p), 0);
  comm.allgather(std::span<const std::uint8_t>(&mine, 1),
                 std::span<std::uint8_t>(out));
  bool ok = true;
  if (comm.rank() == 0 || comm.rank() == p - 1) {
    for (int i = 0; ok && i < p; ++i) ok = out[i] == tag(i);
  } else {
    ok = out[comm.rank()] == mine && out[0] == tag(0) &&
         out[p - 1] == tag(p - 1);
  }
  if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("scale", argc, argv, {"ranks"});
  const bool smoke = h.smoke();
  Report report;
  report.ranks =
      static_cast<int>(h.int_flag("ranks", smoke ? 10000 : 100000, 2));
  const int ranks = report.ranks;
  std::printf("bench_scale: %d ranks (%s)\n", ranks,
              smoke ? "smoke" : "full");

  // Phase 1: steady-state rank footprint. Measured first, in a process
  // that has not yet run a workload, so the RSS delta is not polluted by
  // allocator reuse of earlier peaks.
  report.rank_state_total_bytes = measure_rank_state_bytes(ranks);
  report.bytes_per_rank_state =
      static_cast<double>(report.rank_state_total_bytes) / ranks;
  std::printf("  rank state        %8.1f bytes/rank  (%.1f MiB total)\n",
              report.bytes_per_rank_state,
              report.rank_state_total_bytes / (1024.0 * 1024.0));

  const xmpi::RunConfig config = scale_config(ranks);
  std::atomic<int> failures{0};

  // Phase 2: spawn throughput (empty bodies — stack lease + context setup
  // + dispatch + recycle per rank).
  report.spawn_s = bench::seconds([&] {
    (void)xmpi::Runtime::run(config, [](xmpi::Comm&) {});
  });
  report.spawn_ranks_per_s = ranks / report.spawn_s;
  std::printf("  spawn             %8.3f s  (%.0f ranks/s)\n",
              report.spawn_s, report.spawn_ranks_per_s);

  // Phase 3: allreduce of 64 doubles (recursive-doubling path at this
  // count), verified on every rank.
  {
    bench::RssSampler sampler;
    report.allreduce_s = bench::seconds([&] {
      xmpi::Runtime::run(config, [&failures](xmpi::Comm& comm) {
        allreduce_body(comm, failures);
      });
    });
    sampler.stop();
    report.allreduce_peak_rss_bytes = sampler.peak_bytes();
  }
  std::printf("  allreduce(64 f64) %8.3f s  (peak rss %.1f MiB)\n",
              report.allreduce_s,
              report.allreduce_peak_rss_bytes / (1024.0 * 1024.0));

  // Phase 4: allgather of 1 byte per rank (Bruck path), verified.
  {
    bench::RssSampler sampler;
    report.allgather_s = bench::seconds([&] {
      xmpi::Runtime::run(config, [&failures](xmpi::Comm& comm) {
        allgather_body(comm, failures);
      });
    });
    sampler.stop();
    report.allgather_peak_rss_bytes = sampler.peak_bytes();
  }
  std::printf("  allgather(1 B)    %8.3f s  (peak rss %.1f MiB)\n",
              report.allgather_s,
              report.allgather_peak_rss_bytes / (1024.0 * 1024.0));

  report.stacks = xmpi::StackPool::instance().stats();
  std::printf("  stackpool         %llu slabs, %llu served, %llu reused, "
              "peak live %llu\n",
              static_cast<unsigned long long>(report.stacks.slabs),
              static_cast<unsigned long long>(report.stacks.served),
              static_cast<unsigned long long>(report.stacks.reuse_hits),
              static_cast<unsigned long long>(report.stacks.peak_live));

  if (failures.load() != 0) {
    std::fprintf(stderr, "FAIL: %d ranks saw wrong collective results\n",
                 failures.load());
    return 1;
  }

  h.record("ranks", ranks, "count", bench::Clock::kNone);
  h.record("rank_state_total_bytes",
           static_cast<double>(report.rank_state_total_bytes), "bytes",
           bench::Clock::kNone);
  h.record("bytes_per_rank_state", report.bytes_per_rank_state, "bytes",
           bench::Clock::kNone, bench::at_most(1.2));
  h.record("spawn_s", report.spawn_s, "s", bench::Clock::kHost);
  h.record("spawn_ranks_per_s", report.spawn_ranks_per_s, "1/s",
           bench::Clock::kHost);
  h.record("allreduce_s", report.allreduce_s, "s", bench::Clock::kHost);
  h.record("allreduce_peak_rss_bytes",
           static_cast<double>(report.allreduce_peak_rss_bytes), "bytes",
           bench::Clock::kNone);
  h.record("allgather_s", report.allgather_s, "s", bench::Clock::kHost);
  h.record("allgather_peak_rss_bytes",
           static_cast<double>(report.allgather_peak_rss_bytes), "bytes",
           bench::Clock::kNone);
  for (const auto& [key, value, unit] :
       {std::tuple{"slabs", report.stacks.slabs, "count"},
        std::tuple{"mapped_bytes", report.stacks.mapped_bytes, "bytes"},
        std::tuple{"served", report.stacks.served, "count"},
        std::tuple{"reuse_hits", report.stacks.reuse_hits, "count"},
        std::tuple{"peak_live", report.stacks.peak_live, "count"}}) {
    h.record(std::string("stackpool.") + key, static_cast<double>(value),
             unit, bench::Clock::kNone);
  }

  constexpr double kMaxBytesPerRank = 4096.0;
  char detail[96];
  std::snprintf(detail, sizeof(detail), "%.1f bytes/rank vs the %.0f-byte "
                "budget", report.bytes_per_rank_state, kMaxBytesPerRank);
  h.gate("bytes-per-rank<=4096",
         report.bytes_per_rank_state <= kMaxBytesPerRank, detail);
  return h.finish();
}
