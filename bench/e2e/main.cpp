// bench_e2e — the end-to-end benchmark of powerlin (README.md in this
// directory). One process runs one workload:
//
//   bench_e2e --workload=dense|sparse|ranks|serve|serve_cold [--seed=N]
//             [--seconds=S] [--min-jobs=J] [--trace=DIR] [--work-dir=DIR]
//             [--out=FILE]
//
// Untraced, it sets the workload up nine times (reporting the median),
// runs the timed phase — at least the workload's fixed job count (or J),
// and at least S seconds — and prints every end-to-end metric. With
// --trace=DIR it instead runs an untraced and a traced phase of S/2
// seconds each, then the per-layer probes, prints every per-layer metric
// and writes DIR/spans.json and DIR/layers.json. Every line but the last
// is for people; the last line is one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Exit status: 0 when every output checked out, 1 when a check failed (the
// JSON line is still printed), 2 on a usage or set-up error.
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "e2e.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

using namespace plin;
using namespace plin::e2e;

// Set-ups last 0.1-0.3 s; the median of nine is steady where the median of
// three was not.
constexpr int kSetups = 9;

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string path;
};

double completed_per_s(const PhaseResult& phase) {
  return static_cast<double>(phase.attempted - phase.failed) / phase.wall_s;
}

/// Mean simulated time and energy per executed job over the fixed job
/// prefix, so that they repeat for the same seed. Nothing where no prefix
/// is fixed (serve, traced halves): there the job set depends on host speed.
void add_simulated(const PhaseResult& phase, std::vector<Metric>& notes) {
  if (phase.fixed == 0) return;
  const std::size_t count = std::min(phase.fixed, phase.executed.size());
  double seconds = 0.0;
  double joules = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    seconds += phase.executed[i].duration_s;
    joules += phase.executed[i].total_j;
  }
  const double jobs = static_cast<double>(std::max<std::size_t>(count, 1));
  notes.push_back({"sim_s", seconds / jobs, "s", "virtual_s"});
  notes.push_back({"sim_j", joules / jobs, "J", "modeled_j"});
}

void print_metric(const Metric& m, const char* kind) {
  std::cout << kind << ' ' << std::left << std::setw(32) << m.name
            << std::right << std::setw(16) << std::setprecision(6) << m.value
            << ' ' << std::left << std::setw(8) << m.unit << ' ' << m.clock
            << '\n';
}

json::Value metrics_json(const std::vector<Metric>& metrics, bool with_clock) {
  json::Value out = json::make_object();
  for (const Metric& m : metrics) {
    json::Value entry = json::make_object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    if (with_clock) entry.set("clock", m.clock);
    out.set(m.name, std::move(entry));
  }
  return out;
}

int run(const CliArgs& args) {
  const std::string name = args.get("workload", "");
  const long seed = args.get_int("seed", 1);
  const double seconds = args.get_double("seconds", 12.0);
  const std::string trace_dir = args.get("trace", "");
  const bool traced = !trace_dir.empty();
  PLIN_CHECK_MSG(seed >= 0, "--seed must be >= 0");
  PLIN_CHECK_MSG(seconds > 0.0 && seconds <= 600.0,
                 "--seconds must be in (0, 600]");

  const ScratchDir scratch(args.get("work-dir", ".") + "/bench_e2e." +
                           std::to_string(::getpid()));
  std::unique_ptr<Workload> workload =
      make_workload(name, static_cast<std::uint64_t>(seed), scratch.path);
  const long min_jobs =
      args.get_int("min-jobs", static_cast<long>(workload->min_jobs()));
  PLIN_CHECK_MSG(min_jobs >= 0, "--min-jobs must be >= 0");
  const std::string workers = std::to_string(workload->xmpi_workers());
  ::setenv("PLIN_XMPI_WORKERS", workers.c_str(), 1);
  std::cout << "bench_e2e workload=" << name << " seed=" << seed
            << " seconds=" << seconds << " traced=" << (traced ? 1 : 0)
            << " PLIN_XMPI_WORKERS=" << workers << "\n";

  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) setups.push_back(workload->setup(nullptr));

  std::vector<Metric> metrics;  // the JSON result line
  std::vector<Metric> notes;    // printed and written to --out only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  bool reconciled = true;
  auto count = [&](const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
    errors.insert(errors.end(), phase.errors.begin(), phase.errors.end());
  };

  if (!traced) {
    const PhaseResult phase =
        workload->run(seconds, static_cast<std::size_t>(min_jobs));
    count(phase);
    const double tail = workload->tail_quantile();
    const double process_peak_mb = vm_hwm_mb();  // before peak_rss_mb()
    PhaseResult memory_pass;
    const double peak_mb = workload->peak_rss_mb(memory_pass);
    count(memory_pass);
    metrics = {
        {"setup_s", quantile(setups, 0.5), "s", "host_s"},
        {"jobs_per_s", completed_per_s(phase), "1/s", "host_s"},
        {"latency_p50_ms", quantile(phase.latency_s, 0.5) * 1e3, "ms",
         "host_s"},
        {"latency_tail_ms", quantile(phase.latency_s, tail) * 1e3, "ms",
         "host_s"},
        {"peak_rss_mb", peak_mb, "MB", "none"}};
    notes = {{"tail_quantile", tail, "ratio", "none"},
             {"samples", static_cast<double>(phase.latency_s.size()), "count",
              "none"},
             {"fail_ratio",
              static_cast<double>(phase.failed) /
                  static_cast<double>(std::max<std::size_t>(phase.attempted, 1)),
              "ratio", "none"},
             {"process_peak_rss_mb", process_peak_mb, "MB", "none"}};
    add_simulated(phase, notes);
  } else {
    // Latency is not reported here, so the halves need no job floor.
    const PhaseResult plain = workload->run(seconds / 2, 0);
    SpanLog log;
    workload->setup(&log);
    const PhaseResult traced_phase = workload->run(seconds / 2, 0);
    count(plain);
    count(traced_phase);
    // Tracing is bench-level only, so every job both phases ran must have
    // the same simulated outputs. Monitored energy may differ (see
    // VirtualOutputs::matches); how often it does is a note.
    std::size_t compared = 0;
    std::size_t energy_differs = 0;
    for (const auto& [key, out] : traced_phase.outputs) {
      const auto it = plain.outputs.find(key);
      if (it == plain.outputs.end()) continue;
      ++attempted;
      ++compared;
      if (it->second.total_j != out.total_j) ++energy_differs;
      if (!it->second.matches(out)) {
        ++failed;
        std::ostringstream what;
        what << std::setprecision(17) << "traced run changed the simulated "
             << "outputs of " << key << ": duration " << it->second.duration_s
             << " vs " << out.duration_s << ", residual "
             << it->second.residual << " vs " << out.residual;
        errors.push_back(what.str());
      }
    }
    notes.push_back({"rerun_jobs", static_cast<double>(compared), "count",
                     "none"});
    notes.push_back({"rerun_energy_differs", static_cast<double>(energy_differs),
                     "count", "none"});
    const std::vector<batch::JobSpec> templates = workload->templates();
    workload.reset();  // drain a server before the probes
    PhaseResult checks;
    metrics = run_layer_probes(templates, scratch.path, log, checks, notes);
    count(checks);
    metrics.push_back({"bench.trace_overhead",
                       completed_per_s(traced_phase) / completed_per_s(plain),
                       "ratio", "host_s"});
    reconciled = log.write(trace_dir);
    notes.push_back({"reconciled", reconciled ? 1.0 : 0.0, "bool", "none"});
    std::cout << "wrote " << trace_dir << "/spans.json and " << trace_dir
              << "/layers.json\n";
  }

  for (const std::string& e : errors) std::cout << "FAILED: " << e << "\n";
  for (const Metric& m : metrics) print_metric(m, "metric");
  for (const Metric& m : notes) print_metric(m, "note  ");
  const bool correct = failed == 0 && reconciled;

  if (args.has("out")) {
    std::vector<Metric> all = metrics;
    all.insert(all.end(), notes.begin(), notes.end());
    json::Value out = json::make_object();
    out.set("workload", name);
    out.set("seed", static_cast<double>(seed));
    out.set("seconds", seconds);
    out.set("traced", traced);
    out.set("correct", correct);
    out.set("attempted", static_cast<double>(attempted));
    out.set("failed", static_cast<double>(failed));
    out.set("metrics", metrics_json(all, /*with_clock=*/true));
    std::ofstream file(args.get("out", ""), std::ios::trunc);
    file << json::serialize(out) << "\n";
    if (!file) throw IoError("bench_e2e: cannot write --out file");
  }

  json::Value line = json::make_object();
  line.set("correct", correct);
  line.set("attempted", static_cast<double>(attempted));
  line.set("failed", static_cast<double>(failed));
  line.set("metrics", metrics_json(metrics, /*with_clock=*/false));
  std::cout << json::serialize(line) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A client or server write to a closed peer must fail, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  const CliArgs args(argc, argv);
  try {
    args.require_known({"workload", "seed", "seconds", "min-jobs", "trace",
                        "work-dir", "out", "help"});
    if (args.get_bool("help", false) || !args.has("workload")) {
      std::cerr << "usage: bench_e2e "
                   "--workload=dense|sparse|ranks|serve|serve_cold "
                   "[--seed=N] [--seconds=S] [--min-jobs=J] [--trace=DIR] "
                   "[--work-dir=DIR] [--out=FILE]\n";
      return args.has("workload") ? 0 : 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
