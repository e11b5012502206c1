// Serve-daemon load generator and perf-regression harness (docs/serve.md).
//
// Boots an in-process Engine + Server on a real AF_UNIX socket, then
// drives it with three phases:
//
//   1. cold-submit       unique replay-tier specs, one blocking client —
//                        every request executes on a worker;
//   2. cached-resubmit   the same specs again — every request is a cache
//                        hit served straight from the journaled store;
//   3. sustained-load    N concurrent clients (one thread + one connection
//                        each, default 1000) issuing a heavy-tailed mix:
//                        ~80% of requests land on a small pre-warmed hot
//                        set, ~20% are unique cold specs, spread across
//                        three tenants with 4:2:1 fair-share weights.
//
// Prints a wall-clock table and writes `BENCH_serve.json` (bench/harness.hpp
// schema: p50/p99 latency, jobs/sec, cache-hit ratio, full server counters
// as server.* records).
//
// Flags (bench/harness.hpp): --smoke for fewer requests per client;
// --clients=N concurrent clients in phase 3 (default 1000); --requests=N
// requests per client (default 16; smoke 4); --workers=N engine worker
// threads (default 4); --check exits nonzero unless every request
// succeeded, nothing was rejected, the cached-resubmit p50 is >= 5x faster
// than the cold p50, and (with --baseline) the deterministic request count
// and client-side hit ratio match the checked-in baseline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

#include "batch/store.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace plin;

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "plin_bench_serve" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Replay-tier spec: executes in milliseconds, so thousands of requests
/// stay cheap while still exercising the full submit/execute/journal path.
batch::JobSpec replay_spec(std::uint64_t seed, std::size_t n = 96) {
  batch::JobSpec spec;
  spec.tier = batch::Tier::kReplay;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = n;
  spec.ranks = 4;
  spec.nb = 32;
  spec.seed = seed;
  return spec;
}

/// Cold-phase spec: numeric tier, so the worker actually runs the solver
/// through xmpi and execution dominates the socket round-trip — the
/// cold/cached ratio then measures the cache, not the wire.
batch::JobSpec cold_spec(int i) {
  batch::JobSpec spec = replay_spec(900000 + static_cast<std::uint64_t>(i),
                                    96);
  spec.tier = batch::Tier::kNumeric;
  return spec;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Connects with retries: a thousand simultaneous connects can transiently
/// overflow the listen backlog, which is backpressure, not failure.
std::unique_ptr<serve::Client> connect_client(const std::string& socket) {
  for (int attempt = 0;; ++attempt) {
    try {
      return std::make_unique<serve::Client>(socket);
    } catch (const Error&) {
      if (attempt >= 500) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

bool response_ok(const json::Value& response) {
  const json::Value* ok = response.find("ok");
  if (ok == nullptr || !ok->as_bool()) return false;
  const json::Value* status = response.find("status");
  return status == nullptr || status->as_string() == "done" ||
         status->as_string() == "cached";
}

struct LoadResult {
  std::vector<double> latencies_s;
  std::size_t hot = 0;
  std::size_t unique = 0;
  std::size_t errors = 0;
};

const char* kTenants[3] = {"interactive", "batch", "background"};

/// Records every number and flag of the server's stats object as a
/// server.<path> record.
void record_stats(bench::Harness& h, const std::string& prefix,
                  const json::Value& value) {
  if (value.kind() == json::Kind::kObject) {
    for (const auto& [key, member] : value.as_object()) {
      record_stats(h, prefix + "." + key, member);
    }
  } else if (value.kind() == json::Kind::kBool) {
    h.record(prefix, value.as_bool() ? 1.0 : 0.0, "bool",
             bench::Clock::kNone);
  } else if (value.kind() == json::Kind::kNumber) {
    const bool ratio = prefix.ends_with("hit_ratio");
    const bool weight = prefix.ends_with(".weight");
    h.record(prefix, value.as_number(),
             ratio ? "ratio" : (weight ? "weight" : "count"),
             bench::Clock::kNone);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("serve", argc, argv, {"clients", "requests", "workers"});
  const bool smoke = h.smoke();
  const int clients = static_cast<int>(h.int_flag("clients", 1000, 1));
  const int requests_per_client =
      static_cast<int>(h.int_flag("requests", smoke ? 4 : 16, 1));
  const int workers = static_cast<int>(h.int_flag("workers", 4, 1));
  try {
    constexpr int kHotSpecs = 16;
    constexpr int kColdSpecs = 32;

    const std::string dir = scratch_dir("run");
    const std::string socket = dir + "/serve.sock";

    batch::ResultStore store(dir + "/store");
    serve::EngineOptions engine_options;
    engine_options.workers = workers;
    engine_options.default_tenant.max_queued = 65536;
    serve::Engine engine(store, engine_options);
    serve::TenantConfig tenant;
    tenant.max_queued = 65536;
    tenant.weight = 4.0;
    engine.configure_tenant(kTenants[0], tenant);
    tenant.weight = 2.0;
    engine.configure_tenant(kTenants[1], tenant);
    tenant.weight = 1.0;
    engine.configure_tenant(kTenants[2], tenant);

    serve::ServerOptions server_options;
    server_options.socket_path = socket;
    server_options.listen_backlog = 1024;
    serve::Server server(engine, server_options);
    std::thread io([&server] { server.serve(); });

    std::cout << "serve load harness: " << clients << " clients x "
              << requests_per_client << " requests, " << workers
              << " workers" << (smoke ? " (smoke)" : "") << "\n\n";

    // Phase 1+2: cold submits, then the identical specs as cache hits.
    std::vector<double> cold_s;
    std::vector<double> hot_s;
    std::size_t phase_errors = 0;
    double cold_wall = 0.0;
    double hot_wall = 0.0;
    {
      auto control = connect_client(socket);
      Stopwatch wall;
      for (int i = 0; i < kColdSpecs; ++i) {
        const double t0 = now_s();
        const json::Value response = control->submit(
            cold_spec(i), "interactive", /*wait=*/true);
        cold_s.push_back(now_s() - t0);
        if (!response_ok(response)) ++phase_errors;
      }
      cold_wall = wall.elapsed_s();
      wall = Stopwatch();
      for (int i = 0; i < kColdSpecs; ++i) {
        const double t0 = now_s();
        const json::Value response = control->submit(
            cold_spec(i), "interactive", /*wait=*/true);
        hot_s.push_back(now_s() - t0);
        if (!response_ok(response)) ++phase_errors;
      }
      hot_wall = wall.elapsed_s();
      // Pre-warm the sustained-load hot set so its hit ratio is exact.
      for (int i = 0; i < kHotSpecs; ++i) {
        const json::Value response =
            control->submit(replay_spec(1 + i), "interactive", /*wait=*/true);
        if (!response_ok(response)) ++phase_errors;
      }
    }
    const double cold_p50 = percentile(cold_s, 0.50);
    const double hot_p50 = percentile(hot_s, 0.50);
    const double cache_speedup = hot_p50 > 0.0 ? cold_p50 / hot_p50 : 0.0;

    // Phase 3: sustained heavy-tailed load from `clients` threads.
    std::vector<LoadResult> results(static_cast<std::size_t>(clients));
    std::mutex barrier_mutex;
    std::condition_variable barrier_cv;
    int ready = 0;
    bool go = false;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        LoadResult& mine = results[static_cast<std::size_t>(c)];
        try {
          auto client = connect_client(socket);
          std::mt19937 rng(static_cast<std::uint32_t>(7919 * c + 17));
          {
            std::unique_lock<std::mutex> lock(barrier_mutex);
            ++ready;
            barrier_cv.notify_all();
            barrier_cv.wait(lock, [&] { return go; });
          }
          for (int r = 0; r < requests_per_client; ++r) {
            const bool is_hot = rng() % 100 < 80;
            const std::uint64_t seed =
                is_hot ? 1 + rng() % kHotSpecs
                       : 1000000 + static_cast<std::uint64_t>(c) * 1000 + r;
            is_hot ? ++mine.hot : ++mine.unique;
            const double t0 = now_s();
            const json::Value response = client->submit(
                replay_spec(seed), kTenants[c % 3], /*wait=*/true);
            mine.latencies_s.push_back(now_s() - t0);
            if (!response_ok(response)) ++mine.errors;
          }
        } catch (const std::exception&) {
          ++mine.errors;
        }
      });
    }
    std::unique_lock<std::mutex> lock(barrier_mutex);
    barrier_cv.wait(lock, [&] { return ready == clients; });
    Stopwatch load_wall;
    go = true;
    barrier_cv.notify_all();
    lock.unlock();
    for (std::thread& t : threads) t.join();
    const double load_s = load_wall.elapsed_s();

    std::vector<double> load_latencies;
    std::size_t hot_requests = 0;
    std::size_t unique_requests = 0;
    std::size_t errors = phase_errors;
    for (const LoadResult& r : results) {
      load_latencies.insert(load_latencies.end(), r.latencies_s.begin(),
                            r.latencies_s.end());
      hot_requests += r.hot;
      unique_requests += r.unique;
      errors += r.errors;
    }
    const std::size_t load_requests = hot_requests + unique_requests;
    const double load_p50 = percentile(load_latencies, 0.50);
    const double load_p99 = percentile(load_latencies, 0.99);
    const double jobs_per_s =
        load_s > 0.0 ? static_cast<double>(load_requests) / load_s : 0.0;
    const double client_hit_ratio =
        load_requests > 0
            ? static_cast<double>(hot_requests) /
                  static_cast<double>(load_requests)
            : 0.0;

    // Server-side truth, then graceful drain.
    json::Value server_stats = json::make_object();
    {
      auto control = connect_client(socket);
      server_stats = control->stats().at("stats");
      control->drain();
    }
    io.join();
    const double rejected = server_stats.at("scheduler").at("rejected")
                                .as_number();
    const double store_hit_ratio =
        server_stats.at("cache").at("hit_ratio").as_number();

    TextTable table({"phase", "requests", "p50", "p99", "jobs/s"});
    auto ms = [](double s) {
      std::ostringstream text;
      text.precision(3);
      text << std::fixed << s * 1e3 << " ms";
      return text.str();
    };
    auto rate = [](double r) {
      std::ostringstream text;
      text.precision(0);
      text << std::fixed << r;
      return text.str();
    };
    table.add_row({"cold-submit", std::to_string(kColdSpecs), ms(cold_p50),
                   ms(percentile(cold_s, 0.99)),
                   rate(kColdSpecs / std::max(cold_wall, 1e-9))});
    table.add_row({"cached-resubmit", std::to_string(kColdSpecs),
                   ms(hot_p50), ms(percentile(hot_s, 0.99)),
                   rate(kColdSpecs / std::max(hot_wall, 1e-9))});
    table.add_row({"sustained-load", std::to_string(load_requests),
                   ms(load_p50), ms(load_p99), rate(jobs_per_s)});
    table.print(std::cout);
    std::cout << "\ncache speedup (cold p50 / cached p50): ";
    std::cout.precision(1);
    std::cout << std::fixed << cache_speedup << "x\n";
    std::cout << "client hit ratio " << client_hit_ratio
              << ", store hit ratio " << store_hit_ratio << ", errors "
              << errors << ", wall " << format_duration(load_s) << "\n";

    h.record("clients", clients, "count", bench::Clock::kNone);
    h.record("requests_per_client", requests_per_client, "count",
             bench::Clock::kNone);
    h.record("workers", workers, "count", bench::Clock::kNone);
    h.record("errors", static_cast<double>(errors), "count",
             bench::Clock::kNone);
    h.record("cold_p50_ms", cold_p50 * 1e3, "ms", bench::Clock::kHost);
    h.record("cached_p50_ms", hot_p50 * 1e3, "ms", bench::Clock::kHost);
    h.record("cache_speedup", cache_speedup, "ratio", bench::Clock::kHost);
    h.record("load.wall_s", load_s, "s", bench::Clock::kHost);
    // The request mix is seeded, so the request count and the hit ratio are
    // exactly reproducible (latency numbers are not, and are not baselined).
    h.record("load.requests", static_cast<double>(load_requests), "count",
             bench::Clock::kNone, bench::exact());
    h.record("load.hot_requests", static_cast<double>(hot_requests), "count",
             bench::Clock::kNone);
    h.record("load.unique_requests", static_cast<double>(unique_requests),
             "count", bench::Clock::kNone);
    h.record("load.p50_ms", load_p50 * 1e3, "ms", bench::Clock::kHost);
    h.record("load.p99_ms", load_p99 * 1e3, "ms", bench::Clock::kHost);
    h.record("load.jobs_per_s", jobs_per_s, "1/s", bench::Clock::kHost);
    h.record("load.client_hit_ratio", client_hit_ratio, "ratio",
             bench::Clock::kNone, bench::rel(1e-12));
    record_stats(h, "server", server_stats);

    h.gate("no-errors", errors == 0, std::to_string(errors) + " errors");
    h.gate("no-rejections", rejected == 0.0,
           std::to_string(static_cast<long>(rejected)) + " rejected");
    h.gate("clients>=1000", clients >= 1000,
           std::to_string(clients) + " clients");
    char speedup[64];
    std::snprintf(speedup, sizeof(speedup), "cold p50 / cached p50 = %.1fx",
                  cache_speedup);
    h.gate("cache-speedup>=5x", cache_speedup >= 5.0, speedup);
    return h.finish();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
