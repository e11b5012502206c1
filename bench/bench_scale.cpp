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
// Peak RSS of phases 3/4 is sampled by bench/rss.hpp; the sparse peer-map
// aggregates (RunResult::peer_entries_max) and process-wide StackPool
// counters round out the report. Everything lands in BENCH_scale.json
// (schema powerlin-bench-scale/v1).
//
// Flags:
//   --smoke           10000 ranks instead of 100000
//   --ranks=N         explicit rank count (overrides --smoke / default)
//   --out=PATH        JSON output path (default BENCH_scale.json)
//   --check           exit nonzero unless bytes_per_rank_state <= 4096 and,
//                     when --baseline is given, <= 1.2x the baseline value
//   --baseline=PATH   checked-in BENCH_scale.json to regress against
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

template <typename F>
double seconds_of(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Report {
  int ranks = 0;
  bool smoke = false;
  std::uint64_t rank_state_total_bytes = 0;
  double bytes_per_rank_state = 0.0;
  double spawn_s = 0.0;
  double spawn_ranks_per_s = 0.0;
  double allreduce_s = 0.0;
  std::uint64_t allreduce_peak_rss_bytes = 0;
  double allgather_s = 0.0;
  std::uint64_t allgather_peak_rss_bytes = 0;
  std::uint64_t peer_entries_max = 0;
  std::uint64_t peer_entries_total = 0;
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

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

bool write_json(const std::string& path, const Report& r) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"powerlin-bench-scale/v1\",\n"
      << "  \"mode\": \"" << (r.smoke ? "smoke" : "full") << "\",\n"
      << "  \"ranks\": " << r.ranks << ",\n"
      << "  \"rank_state_total_bytes\": " << r.rank_state_total_bytes
      << ",\n"
      << "  \"bytes_per_rank_state\": " << fmt(r.bytes_per_rank_state)
      << ",\n"
      << "  \"spawn_s\": " << fmt(r.spawn_s) << ",\n"
      << "  \"spawn_ranks_per_s\": " << fmt(r.spawn_ranks_per_s) << ",\n"
      << "  \"allreduce_s\": " << fmt(r.allreduce_s) << ",\n"
      << "  \"allreduce_peak_rss_bytes\": " << r.allreduce_peak_rss_bytes
      << ",\n"
      << "  \"allgather_s\": " << fmt(r.allgather_s) << ",\n"
      << "  \"allgather_peak_rss_bytes\": " << r.allgather_peak_rss_bytes
      << ",\n"
      << "  \"peer_entries_max\": " << r.peer_entries_max << ",\n"
      << "  \"peer_entries_total\": " << r.peer_entries_total << ",\n"
      << "  \"stackpool\": {\"slabs\": " << r.stacks.slabs
      << ", \"mapped_bytes\": " << r.stacks.mapped_bytes
      << ", \"served\": " << r.stacks.served
      << ", \"reuse_hits\": " << r.stacks.reuse_hits
      << ", \"peak_live\": " << r.stacks.peak_live << "}\n"
      << "}\n";
  return static_cast<bool>(out.flush());
}

/// Pulls "bytes_per_rank_state": <number> out of a previous report. A
/// full JSON parser would be overkill for one flat field we wrote
/// ourselves; returns a negative value when the file or field is missing.
double baseline_bytes_per_rank(const std::string& path) {
  std::ifstream in(path);
  if (!in) return -1.0;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string key = "\"bytes_per_rank_state\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  int ranks_override = 0;
  std::string out_path = "BENCH_scale.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--ranks=", 8) == 0) {
      ranks_override = std::atoi(argv[i] + 8);
      if (ranks_override < 2) {
        std::fprintf(stderr, "error: --ranks must be >= 2\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "error: unknown argument '%s' (expected --smoke "
                   "--ranks=N --check --out=PATH --baseline=PATH)\n",
                   argv[i]);
      return 2;
    }
  }

  Report report;
  report.smoke = smoke;
  report.ranks = ranks_override != 0 ? ranks_override : (smoke ? 10000
                                                               : 100000);
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
  report.spawn_s = seconds_of([&] {
    (void)xmpi::Runtime::run(config, [](xmpi::Comm&) {});
  });
  report.spawn_ranks_per_s = ranks / report.spawn_s;
  std::printf("  spawn             %8.3f s  (%.0f ranks/s)\n",
              report.spawn_s, report.spawn_ranks_per_s);

  // Phase 3: allreduce of 64 doubles (recursive-doubling path at this
  // count), verified on every rank.
  {
    bench::RssSampler sampler;
    xmpi::RunResult run;
    report.allreduce_s = seconds_of([&] {
      run = xmpi::Runtime::run(config, [&failures](xmpi::Comm& comm) {
        allreduce_body(comm, failures);
      });
    });
    sampler.stop();
    report.allreduce_peak_rss_bytes = sampler.peak_bytes();
    report.peer_entries_max =
        std::max(report.peer_entries_max, run.peer_entries_max);
    report.peer_entries_total =
        std::max(report.peer_entries_total, run.peer_entries_total);
  }
  std::printf("  allreduce(64 f64) %8.3f s  (peak rss %.1f MiB)\n",
              report.allreduce_s,
              report.allreduce_peak_rss_bytes / (1024.0 * 1024.0));

  // Phase 4: allgather of 1 byte per rank (Bruck path), verified.
  {
    bench::RssSampler sampler;
    xmpi::RunResult run;
    report.allgather_s = seconds_of([&] {
      run = xmpi::Runtime::run(config, [&failures](xmpi::Comm& comm) {
        allgather_body(comm, failures);
      });
    });
    sampler.stop();
    report.allgather_peak_rss_bytes = sampler.peak_bytes();
    report.peer_entries_max =
        std::max(report.peer_entries_max, run.peer_entries_max);
    report.peer_entries_total =
        std::max(report.peer_entries_total, run.peer_entries_total);
  }
  std::printf("  allgather(1 B)    %8.3f s  (peak rss %.1f MiB)\n",
              report.allgather_s,
              report.allgather_peak_rss_bytes / (1024.0 * 1024.0));

  report.stacks = xmpi::StackPool::instance().stats();
  std::printf("  peer entries      max %llu / total %llu\n",
              static_cast<unsigned long long>(report.peer_entries_max),
              static_cast<unsigned long long>(report.peer_entries_total));
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

  if (!write_json(out_path, report)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (check) {
    constexpr double kMaxBytesPerRank = 4096.0;
    if (report.bytes_per_rank_state > kMaxBytesPerRank) {
      std::fprintf(stderr,
                   "FAIL: %.1f bytes/rank exceeds the %.0f-byte budget\n",
                   report.bytes_per_rank_state, kMaxBytesPerRank);
      return 1;
    }
    if (!baseline_path.empty()) {
      const double baseline = baseline_bytes_per_rank(baseline_path);
      if (baseline <= 0.0) {
        std::fprintf(stderr, "FAIL: no bytes_per_rank_state in %s\n",
                     baseline_path.c_str());
        return 1;
      }
      if (report.bytes_per_rank_state > 1.2 * baseline) {
        std::fprintf(stderr,
                     "FAIL: %.1f bytes/rank regresses >20%% over the "
                     "baseline %.1f\n",
                     report.bytes_per_rank_state, baseline);
        return 1;
      }
      std::printf("check ok: %.1f bytes/rank (baseline %.1f)\n",
                  report.bytes_per_rank_state, baseline);
    }
  }
  return 0;
}
