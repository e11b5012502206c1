// xmpi runtime perf-regression harness + google-benchmark microbenchmarks.
//
// Default mode runs the regression harness: it sweeps paper-scale rank
// counts over runtime-dominated workloads (world spawn, spawn+collectives,
// ring point-to-point, wildcard gather) on the worker pool, prints a host
// wall-clock table and writes machine-readable `BENCH_xmpi.json`
// (mirroring BENCH_kernels.json) so runtime performance has a recorded
// trajectory.
//
// Flags:
//   --smoke         small rank counts (CI smoke mode)
//   --out=PATH      JSON output path (default BENCH_xmpi.json)
//   --gbench        run the original google-benchmark microbenchmarks
//                   (remaining argv is passed through to the library)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rss.hpp"

#include "hwmodel/placement.hpp"
#include "xmpi/runtime.hpp"

namespace {

using namespace plin;

// ---- regression harness ----------------------------------------------------

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

/// Rank 0 drains a wildcard receive per peer — the indexed mailbox's
/// wildcard scan plus targeted wakeup under maximal fan-in.
void wildcard_gather(xmpi::Comm& comm) {
  if (comm.rank() == 0) {
    for (int i = 1; i < comm.size(); ++i) {
      (void)comm.recv_value<int>(xmpi::kAnySource, xmpi::kAnyTag);
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
    {"wildcard_gather", wildcard_gather},
};

template <typename F>
double seconds_of(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-N wall-clock (one untimed warmup; fewer reps for slow cases).
template <typename F>
double best_seconds(F&& body) {
  const double first = seconds_of(body);
  int reps = 3;
  if (first > 2.0) reps = 1;
  if (first < 0.02) reps = 6;
  double best = first;
  for (int r = 0; r < reps; ++r) best = std::min(best, seconds_of(body));
  return best;
}

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
    result.pool_s = best_seconds([&] {
      const xmpi::RunResult run = xmpi::Runtime::run(pool_config, spec.body);
      workers = run.host_workers;
      result.alloc_count = run.transport.pool.misses;
      result.pool_hits = run.transport.pool.hits;
      result.peak_payload_bytes = run.transport.pool.peak_payload_bytes;
      benchmark::DoNotOptimize(run.duration_s);
    });
    rss.stop();
    result.peak_rss_bytes = rss.peak_bytes();
  }
  result.pool_workers = workers;
  return result;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

bool write_json(const std::string& path, bool smoke,
                const std::vector<HarnessResult>& results) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"powerlin-bench-xmpi/v1\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"results\": [\n";
  bool first = true;
  for (const HarnessResult& r : results) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"workload\": \"" << r.workload << "\", \"ranks\": "
        << r.ranks << ", \"pool_workers\": " << r.pool_workers
        << ", \"alloc_count\": " << r.alloc_count
        << ", \"pool_hits\": " << r.pool_hits
        << ", \"peak_payload_bytes\": " << r.peak_payload_bytes
        << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"pool_s\": " << fmt(r.pool_s) << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out.flush());
}

int run_harness(bool smoke, const std::string& out_path) {
  // Paper campaign scales (1296 ranks on N host workers).
  const std::vector<int> rank_counts =
      smoke ? std::vector<int>{48, 144} : std::vector<int>{144, 576, 1296};

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
  }

  if (!write_json(out_path, smoke, results)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

// ---- google-benchmark microbenchmarks (run with --gbench) ------------------

xmpi::RunConfig config_for(int ranks) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(16, 4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

void BM_RuntimeSpawn(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const xmpi::RunConfig config = config_for(ranks);
  for (auto _ : state) {
    const auto result =
        xmpi::Runtime::run(config, [](xmpi::Comm&) {});
    benchmark::DoNotOptimize(result.duration_s);
  }
}
BENCHMARK(BM_RuntimeSpawn)->Arg(4)->Arg(16)->Arg(64);

void BM_PingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const xmpi::RunConfig config = config_for(2);
  const std::size_t count = bytes / sizeof(double);
  for (auto _ : state) {
    xmpi::Runtime::run(config, [count](xmpi::Comm& comm) {
      std::vector<double> buffer(count, 1.0);
      for (int i = 0; i < 64; ++i) {
        if (comm.rank() == 0) {
          comm.send(std::span<const double>(buffer), 1, 0);
          comm.recv(std::span<double>(buffer), 1, 0);
        } else {
          comm.recv(std::span<double>(buffer), 0, 0);
          comm.send(std::span<const double>(buffer), 0, 0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PingPong)->Arg(64)->Arg(8192)->Arg(262144);

void BM_Bcast(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const xmpi::RunConfig config = config_for(ranks);
  for (auto _ : state) {
    xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
      std::vector<double> data(1024, comm.rank() * 1.0);
      for (int i = 0; i < 16; ++i) {
        comm.bcast(std::span<double>(data), 0);
      }
    });
  }
}
BENCHMARK(BM_Bcast)->Arg(8)->Arg(32);

void BM_Barrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const xmpi::RunConfig config = config_for(ranks);
  for (auto _ : state) {
    xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
      for (int i = 0; i < 16; ++i) comm.barrier();
    });
  }
}
BENCHMARK(BM_Barrier)->Arg(8)->Arg(32);

void BM_AllreduceMaxloc(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const xmpi::RunConfig config = config_for(ranks);
  for (auto _ : state) {
    xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
      for (int i = 0; i < 16; ++i) {
        (void)comm.allreduce_maxloc(comm.rank() * 1.0 + i, comm.rank());
      }
    });
  }
}
BENCHMARK(BM_AllreduceMaxloc)->Arg(8)->Arg(32);

void BM_NonblockingOverlap(benchmark::State& state) {
  // irecv posted early, compute overlapped, wait late.
  const xmpi::RunConfig config = config_for(8);
  for (auto _ : state) {
    xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
      std::vector<double> in(1024);
      std::vector<double> out(1024, 1.0);
      const int peer = comm.rank() ^ 1;
      for (int i = 0; i < 16; ++i) {
        xmpi::Request recv = comm.irecv(std::span<double>(in), peer, 0);
        (void)comm.isend(std::span<const double>(out), peer, 0);
        comm.compute(xmpi::ComputeCost{1e5, 0.0, 1.0});
        recv.wait();
      }
    });
  }
}
BENCHMARK(BM_NonblockingOverlap);

void BM_CommSplit(benchmark::State& state) {
  const xmpi::RunConfig config = config_for(32);
  for (auto _ : state) {
    xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
      xmpi::Comm node = comm.split_shared_node();
      benchmark::DoNotOptimize(node.rank());
    });
  }
}
BENCHMARK(BM_CommSplit);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gbench = false;
  std::string out_path = "BENCH_xmpi.json";
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--gbench") == 0) {
      gbench = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (gbench) {
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  // Harness mode takes no positional arguments; reject typos instead of
  // silently running a different sweep than the user asked for.
  if (passthrough.size() > 1) {
    std::fprintf(stderr,
                 "error: unknown argument '%s' (expected --smoke "
                 "--out=PATH --gbench)\n",
                 passthrough[1]);
    return 2;
  }
  return run_harness(smoke, out_path);
}
