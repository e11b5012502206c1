// Shared pieces of the end-to-end benchmark (README.md in this directory):
// the metric record, the span log of a traced run, the workload interface
// and the per-layer probes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/record.hpp"
#include "batch/spec.hpp"
#include "batch/store.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"

namespace plin::e2e {

/// One reported number. `clock` names what produced it: host_s (host wall
/// clock), virtual_s (simulated time), modeled_j (simulated energy) or
/// none (counts, ratios of counts, memory).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;
};

/// Bench-level spans of a traced run, kept in memory and written once at
/// exit. Thread-safe: serve clients and engine workers record concurrently.
///
/// A span's parent is either the call it is nested in, or — for the
/// layer-by-layer decomposition — the call whose work it re-executes one
/// layer down. Either way a span's self time is its duration minus its
/// children's durations, and that self time is the `unattributed` remainder
/// reported for the level. Because the remainder is defined that way, the
/// reconciliation write() does is a consistency check of the log (every
/// span closed), not evidence that the children account for their
/// parent's work.
class SpanLog {
 public:
  using Id = std::size_t;
  static constexpr Id kNoParent = static_cast<Id>(-1);

  SpanLog();

  Id begin(std::string name, Id parent = kNoParent, std::string job = {});
  void end(Id id);
  double seconds(Id id) const;

  /// Writes <dir>/spans.json (Chrome trace_event format) and
  /// <dir>/layers.json (per-layer self time and counts, and per level the
  /// children plus the unattributed remainder). Returns false when a level
  /// does not reconcile with its parent spans within 1%, which only a span
  /// left open can cause.
  bool write(const std::string& dir) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    std::string job;
    Id parent = kNoParent;
    std::size_t thread = 0;
    double start_s = 0.0;
    double end_s = -1.0;
  };

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::size_t> threads_;
};

/// RAII span. A null log makes it a no-op, so the traced and untraced
/// runs share one code path.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, SpanLog::Id parent = SpanLog::kNoParent,
        std::string job = {});
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  SpanLog::Id id() const { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_ = SpanLog::kNoParent;
};

/// The simulated outputs of one job.
struct VirtualOutputs {
  double duration_s = 0.0;
  double total_j = 0.0;
  double residual = 0.0;

  /// Exactly the same record (a cache hit).
  bool operator==(const VirtualOutputs&) const = default;

  /// A re-execution of the same spec: simulated time and residual bit for
  /// bit. Energy is left out: the monitor reads it through the simulated
  /// RAPL counters while other ranks of the package may not have logged
  /// the same virtual-time window yet, so it can differ between runs.
  bool matches(const VirtualOutputs& other) const {
    return duration_s == other.duration_s && residual == other.residual;
  }
};

VirtualOutputs virtual_outputs(const batch::JobRecord& record);

/// Throws unless `record` is a complete, accurate result for `spec`: same
/// key, one repetition, positive simulated time and energy, a residual
/// within the solver's bound and, for CG, a converged iteration count.
void verify_record(const batch::JobRecord& record, const batch::JobSpec& spec);

/// What one timed phase of a workload produced.
struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;             // timed phase, host clock
  std::vector<double> latency_s;   // one per job (campaigns) / request (serve)
  /// Virtual outputs by store key, for every job this phase executed.
  std::map<std::string, VirtualOutputs> outputs;
  /// Campaigns: the same outputs in job order.
  std::vector<VirtualOutputs> executed;
  /// Leading entries of `executed` that every run of the seed executes:
  /// the fixed job count, 0 when no prefix is fixed.
  std::size_t fixed = 0;
  std::vector<std::string> errors;  // first few failure messages

  void fail(const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up: store open (and journal replay), server start and warm-up
  /// work. Replaces the previous set-up. Spans of the next run() go to
  /// `log` (null for an untraced run). Returns the host seconds of the
  /// set-up proper, leaving out the teardown of the previous set-up and
  /// the staging of a fresh store directory, which a user does not pay.
  virtual double setup(SpanLog* log) = 0;

  /// Timed phase on the current set-up. Campaigns run at least `min_jobs`
  /// jobs, then whole cycles of their job list until `seconds` have passed;
  /// serve clients stop issuing requests at `seconds` (`min_jobs` is
  /// ignored).
  virtual PhaseResult run(double seconds, std::size_t min_jobs) = 0;

  /// The fixed job count of an untraced run: enough jobs for about ten
  /// latency samples beyond tail_quantile(). 0 when time alone decides.
  virtual std::size_t min_jobs() const = 0;

  /// Resident-set peak in MB, called after the timed phase: the process
  /// VmHWM, or for campaigns the peak of the largest single job of one
  /// more cycle (see workloads.cpp), whose jobs count into `checks`.
  virtual double peak_rss_mb(PhaseResult& checks) = 0;

  /// Distinct numeric-tier specs the workload executes; a traced run
  /// decomposes each one layer by layer.
  virtual std::vector<batch::JobSpec> templates() const = 0;

  /// Latency percentile reported as latency_tail_ms: the highest one with
  /// about ten samples beyond it at the workload's sample count.
  virtual double tail_quantile() const = 0;

  /// PLIN_XMPI_WORKERS the workload runs with.
  virtual int xmpi_workers() const = 0;
};

/// The process's resident-set high-water mark (VmHWM), in MB.
double vm_hwm_mb();

/// An in-process daemon: a store under dir/store (replaying any journal
/// there), an engine, a server on dir/s.sock with its IO thread, and
/// `clients` connections. Destruction drains the engine and joins.
struct ServeInstance {
  ServeInstance(const std::string& dir, serve::EngineOptions options,
                int clients);
  ~ServeInstance();
  ServeInstance(const ServeInstance&) = delete;
  ServeInstance& operator=(const ServeInstance&) = delete;

  batch::ResultStore store;
  serve::Engine engine;
  serve::Server server;
  std::vector<std::unique_ptr<serve::Client>> clients;
  std::thread io;
};

/// The five workloads: "dense", "sparse", "ranks", "serve" and
/// "serve_cold". Throws on any other name. Scratch stores and sockets go
/// under `work_dir`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

/// Job seeds of a run: pure functions of the benchmark seed and a stream
/// index, kept below 2^31 so they survive the store's JSON exactly.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t index);

/// The Marconi paper grid (both solvers x the four sizes x the three rank
/// counts, full load) as replay-tier specs with seed `seed`.
std::vector<batch::JobSpec> paper_grid(std::uint64_t seed);

/// Writes a store journal of `count` replay-tier records over the paper
/// grid (unique seeds from `first_seed`), with the simulated outputs in
/// `predictions` (one record per grid point, as execute_job returns them).
void write_replay_journal(const std::string& path, std::size_t count,
                          std::uint64_t first_seed,
                          const std::vector<batch::JobRecord>& predictions);

/// Per-layer probes and the layer-by-layer decomposition of `templates`,
/// each timed under a span in `log`; returns the per-layer metrics. Failed
/// checks go to `checks`, the sizes the probes chose to `notes`.
std::vector<Metric> run_layer_probes(
    const std::vector<batch::JobSpec>& templates, const std::string& work_dir,
    SpanLog& log, PhaseResult& checks, std::vector<Metric>& notes);

/// Median / quantile of host samples (linear interpolation).
double quantile(std::vector<double> samples, double q);

}  // namespace plin::e2e
