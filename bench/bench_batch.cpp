// Batch orchestrator perf-regression harness.
//
// Runs one numeric-tier campaign grid through the orchestrator four ways —
// fresh on 1 worker, fresh on 4 workers, interrupted + resumed, and a
// pure-cache resume — prints a host wall-clock table and writes
// `BENCH_batch.json` (bench/harness.hpp schema) so orchestration overhead
// has a recorded trajectory. The simulated results are bit-identical
// across all four schedules, which the harness verifies by diffing the
// stores' report bytes; the executed/cached split of every case is
// deterministic, so it is baselined exactly.
//
// Flags (bench/harness.hpp): --smoke for a smaller grid; --check exits
// nonzero unless (a) every schedule produced the same report bytes, (b) the
// pure-cache resume beat the fresh single-worker run and (c), with
// --baseline, every executed/cached count matches.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

#include "batch/campaign.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace plin;

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "plin_bench_batch" / name;
  fs::remove_all(dir);
  return dir.string();
}

struct Case {
  std::string name;
  double host_s = 0.0;
  std::size_t executed = 0;
  std::size_t cached = 0;
  std::string report;  // report.csv bytes
};

Case run_case(const std::string& name, const batch::CampaignManifest& manifest,
              batch::CampaignOptions options) {
  Case result;
  result.name = name;
  Stopwatch wall;
  const batch::CampaignResult campaign =
      batch::run_campaign(manifest, options);
  result.host_s = wall.elapsed_s();
  result.executed = campaign.outcome.executed;
  result.cached = campaign.outcome.cached;
  result.report = read_file(campaign.csv_path);
  if (!campaign.outcome.failures.empty()) {
    throw Error("bench_batch: campaign case '" + name + "' had failures");
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("batch", argc, argv);
  const bool smoke = h.smoke();

  constexpr int kReps = 2;
  const batch::CampaignManifest manifest = batch::parse_manifest(
      std::string(smoke ? "campaign bench-batch-smoke\n"
                        : "campaign bench-batch\n") +
      "tier numeric\nmachine mini:8x4\nreps " + std::to_string(kReps) +
      "\ngrid algorithm ime scalapack\n" +
      (smoke ? "grid n 96 128\ngrid ranks 4\n"
             : "grid n 128 192 256\ngrid ranks 4 8\n") +
      "grid layout full half2\n");

  std::vector<Case> cases;
  try {
    batch::CampaignOptions serial;
    serial.store_dir = scratch_dir("serial");
    serial.workers = 1;
    cases.push_back(run_case("fresh-1-worker", manifest, serial));

    batch::CampaignOptions pooled;
    pooled.store_dir = scratch_dir("pooled");
    pooled.workers = 4;
    cases.push_back(run_case("fresh-4-workers", manifest, pooled));

    batch::CampaignOptions interrupted;
    interrupted.store_dir = scratch_dir("interrupted");
    interrupted.workers = 4;
    interrupted.max_jobs = manifest.job_count() / 2;
    run_case("interrupt-half", manifest, interrupted);
    interrupted.max_jobs = static_cast<std::size_t>(-1);
    cases.push_back(run_case("resume-after-interrupt", manifest,
                             interrupted));

    // Pure cache: every job served from the journal, no execution.
    cases.push_back(run_case("resume-pure-cache", manifest, serial));
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  TextTable table({"case", "host time", "executed", "cached"});
  for (const Case& c : cases) {
    table.add_row({c.name, format_duration(c.host_s),
                   std::to_string(c.executed), std::to_string(c.cached)});
  }
  std::cout << "batch orchestrator harness (" << manifest.job_count()
            << " jobs x " << kReps << " reps, numeric tier"
            << (smoke ? ", smoke" : "") << ")\n\n";
  table.print(std::cout);

  bool identical = true;
  for (const Case& c : cases) {
    if (c.report != cases.front().report) identical = false;
  }
  std::cout << "\nreports byte-identical across schedules: "
            << (identical ? "yes" : "NO") << "\n";

  h.record("jobs", static_cast<double>(manifest.job_count()), "count",
           bench::Clock::kNone);
  h.record("reports_identical", identical ? 1.0 : 0.0, "bool",
           bench::Clock::kNone);
  for (const Case& c : cases) {
    h.record(c.name + ".host_s", c.host_s, "s", bench::Clock::kHost);
    h.record(c.name + ".executed", static_cast<double>(c.executed), "count",
             bench::Clock::kNone, bench::exact());
    h.record(c.name + ".cached", static_cast<double>(c.cached), "count",
             bench::Clock::kNone, bench::exact());
  }
  h.gate("identical", identical,
         "report.csv bytes must match across schedules");
  h.gate("cache-beats-fresh", cases.back().host_s < cases.front().host_s,
         "pure-cache resume " + format_duration(cases.back().host_s) +
             " vs fresh single-worker " +
             format_duration(cases.front().host_s));
  return h.finish();
}
