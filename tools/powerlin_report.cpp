// powerlin_report — the self-checking reproduction report.
//
// Replays the paper's full evaluation grid on the Marconi A3 model and
// checks every §5 claim this repository reproduces, printing a PASS/FAIL
// line per claim plus the numbers behind it. Exit code 0 iff every claim
// holds — the one-command answer to "does this reproduction still stand?".
//
// A second mode, `--trace DIR`, renders the summary.json of a span-trace
// bundle (docs/tracing.md) as human-readable tables: per-phase energy
// attribution, communication totals and the critical-path breakdown.
//
// A third mode, `--store DIR`, inspects a campaign/serve result store:
// journal health (duplicates, stale records, torn-tail recovery), the
// record inventory, and — when the serve daemon left a stats snapshot
// (<DIR>/serve_stats.json, docs/serve.md) — the cache and tenant counters.
//
//   ./powerlin_report [--markdown]   (--help for the flag reference)
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "batch/report.hpp"
#include "batch/store.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/simulator.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "support/version.hpp"

namespace {

using namespace plin;

struct Claim {
  std::string id;
  std::string text;
  bool pass = false;
  std::string evidence;
};

class Grid {
 public:
  Grid() {
    const hw::MachineSpec machine = hw::marconi_a3();
    const perfsim::Simulator simulator(machine);
    for (perfsim::Algorithm a :
         {perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack}) {
      for (std::size_t n : hw::kPaperMatrixSizes) {
        for (int ranks : hw::kPaperRankCounts) {
          for (hw::LoadLayout layout :
               {hw::LoadLayout::kFullLoad, hw::LoadLayout::kHalfLoadOneSocket,
                hw::LoadLayout::kHalfLoadTwoSockets}) {
            grid_[key(a, n, ranks, layout)] = simulator.predict(
                {a, n, 64}, hw::make_placement(ranks, layout, machine));
          }
        }
      }
    }
  }

  const perfsim::Prediction& at(
      perfsim::Algorithm a, std::size_t n, int ranks,
      hw::LoadLayout layout = hw::LoadLayout::kFullLoad) const {
    return grid_.at(key(a, n, ranks, layout));
  }

 private:
  static std::string key(perfsim::Algorithm a, std::size_t n, int ranks,
                         hw::LoadLayout layout) {
    return std::to_string(static_cast<int>(a)) + "/" + std::to_string(n) +
           "/" + std::to_string(ranks) + "/" +
           std::to_string(static_cast<int>(layout));
  }
  std::map<std::string, perfsim::Prediction> grid_;
};

/// `--trace DIR`: renders <DIR>/summary.json (written by a traced run —
/// docs/tracing.md) as tables.
int report_trace(const std::string& dir) {
  const std::string path = dir + "/summary.json";
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::cerr << "error: cannot open " << path
              << " (expected a trace bundle directory)\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  const json::Value doc = json::parse(buffer.str());

  std::cout << "Trace summary: " << path << "\n"
            << "  duration " << format_duration(doc.at("duration_s").as_number())
            << ", " << doc.at("ranks").as_number() << " ranks, "
            << doc.at("dropped_spans").as_number() << " dropped spans"
            << (doc.at("complete").as_bool()
                    ? ""
                    : " (ring overflow: attribution is partial)")
            << "\n\n";

  const json::Value& energy = doc.at("energy");
  std::cout << "Per-phase energy attribution (CPU "
            << format_energy(energy.at("total_cpu_j").as_number()) << ", DRAM "
            << format_energy(energy.at("total_dram_j").as_number()) << "):\n";
  TextTable phases({"phase", "seconds", "compute", "commwait", "CPU energy",
                    "DRAM energy"});
  for (const json::Value& row : energy.at("phases").as_array()) {
    phases.add_row({row.at("phase").as_string(),
                    format_duration(row.at("seconds").as_number()),
                    format_duration(row.at("compute_s").as_number()),
                    format_duration(row.at("commwait_s").as_number()),
                    format_energy(row.at("cpu_j").as_number()),
                    format_energy(row.at("dram_j").as_number())});
  }
  phases.print(std::cout);

  const json::Value& comm = doc.at("comm");
  std::cout << "\nCommunication: " << comm.at("total_messages").as_number()
            << " messages, " << comm.at("total_bytes").as_number()
            << " bytes, "
            << format_duration(comm.at("total_wait_s").as_number())
            << " receive wait (" << comm.at("edges").as_array().size()
            << " rank pairs)\n";

  const json::Value& path_doc = doc.at("critical_path");
  std::cout << "\nCritical path: "
            << format_duration(path_doc.at("duration_s").as_number())
            << " ending on rank " << path_doc.at("end_rank").as_number()
            << " (" << path_doc.at("rank_switches").as_number()
            << " rank switches; compute "
            << format_duration(path_doc.at("compute_s").as_number())
            << ", comm wait "
            << format_duration(path_doc.at("commwait_s").as_number())
            << ", network "
            << format_duration(path_doc.at("network_s").as_number()) << ")\n";
  TextTable critical({"phase", "critical", "total rank time", "slack"});
  for (const json::Value& row : path_doc.at("phases").as_array()) {
    critical.add_row({row.at("phase").as_string(),
                      format_duration(row.at("critical_s").as_number()),
                      format_duration(row.at("total_rank_s").as_number()),
                      format_duration(row.at("slack_s").as_number())});
  }
  critical.print(std::cout);
  return 0;
}

/// `--store DIR`: renders the store's journal health and record inventory,
/// plus the serve daemon's stats snapshot when one exists.
int report_store(const std::string& dir) {
  const batch::ResultStore store(dir);
  const batch::StoreStats stats = store.stats();

  std::cout << "Result store: " << dir << "\n"
            << "  records: " << store.size() << " (replayed "
            << stats.replayed << " journal lines)\n"
            << "  duplicate journal keys: " << stats.duplicate_keys << "\n"
            << "  stale-format records skipped: " << stats.skipped_stale
            << "\n"
            << "  torn tail recovered: " << (stats.torn_tail ? "yes" : "no")
            << "\n";

  if (store.size() > 0) {
    std::cout << "\nRecord inventory:\n";
    batch::print_report_table(std::cout, store.all_records());
  }

  const std::string stats_path = dir + "/serve_stats.json";
  std::ifstream is(stats_path, std::ios::binary);
  if (!is) {
    std::cout << "  (no serve stats snapshot: " << stats_path << ")\n";
    return 0;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  const json::Value doc = json::parse(buffer.str());

  const auto count = [](const json::Value& obj, std::string_view key) {
    const json::Value* v = obj.find(key);
    return v != nullptr ? static_cast<long>(v->as_number()) : 0L;
  };

  if (const json::Value* cache = doc.find("cache")) {
    const long hits = count(*cache, "hits");
    const long misses = count(*cache, "misses");
    const long total = hits + misses;
    std::cout << "\nCache (probe counters while the daemon ran):\n"
              << "  hits " << hits << ", misses " << misses << ", inserts "
              << count(*cache, "inserts") << ", hit ratio "
              << format_fixed(total > 0 ? 100.0 * hits / total : 0.0, 1)
              << "%\n";
  }
  if (const json::Value* engine = doc.find("scheduler")) {
    std::cout << "Scheduler: " << count(*engine, "submitted")
              << " submitted, " << count(*engine, "completed")
              << " completed (" << count(*engine, "executed") << " executed, "
              << count(*engine, "cache_hits") << " cache hits, "
              << count(*engine, "coalesced") << " coalesced), "
              << count(*engine, "failed") << " failed, "
              << count(*engine, "rejected") << " rejected, "
              << count(*engine, "retries") << " retries, "
              << count(*engine, "timeouts") << " timeouts\n";
  }
  if (const json::Value* tenants = doc.find("tenants")) {
    TextTable table({"tenant", "weight", "submitted", "completed", "hits",
                     "coalesced", "rejected", "failed"});
    for (const auto& [name, row] : tenants->as_object()) {
      table.add_row({name, format_fixed(row.at("weight").as_number(), 1),
                     std::to_string(count(row, "submitted")),
                     std::to_string(count(row, "completed")),
                     std::to_string(count(row, "cache_hits")),
                     std::to_string(count(row, "coalesced")),
                     std::to_string(count(row, "rejected")),
                     std::to_string(count(row, "failed"))});
    }
    std::cout << "\nPer-tenant accounting:\n";
    table.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  try {
    args.require_known({"markdown", "trace", "store", "version", "help"});
    if (args.get_bool("version", false)) {
      std::cout << "powerlin_report " << plin::kVersion << "\n";
      return 0;
    }
    if (args.has("trace")) return report_trace(args.get("trace", ""));
    if (args.has("store")) return report_store(args.get("store", ""));
  } catch (const plin::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (args.get_bool("help", false)) {
    std::cout << "powerlin_report — self-checking reproduction report\n\n"
                 "  --markdown   emit the claim table as GitHub markdown\n"
                 "  --trace DIR  render DIR/summary.json (a span-trace "
                 "bundle, docs/tracing.md)\n"
                 "  --store DIR  inspect a result store: journal health, "
                 "records, and the\n"
                 "               serve daemon's stats snapshot when present "
                 "(docs/serve.md)\n"
                 "  --version    print the release version and exit\n"
                 "  --help       this text\n";
    return 0;
  }
  const bool markdown = args.get_bool("markdown", false);
  const Grid grid;
  using A = perfsim::Algorithm;
  std::vector<Claim> claims;

  // --- Figure 3: full load always consumes least --------------------------
  {
    Claim claim{"fig3", "full-load deployments always consume least energy",
                true, ""};
    int cells = 0;
    for (A a : {A::kIme, A::kScalapack}) {
      for (std::size_t n : hw::kPaperMatrixSizes) {
        for (int ranks : hw::kPaperRankCounts) {
          const double full =
              grid.at(a, n, ranks, hw::LoadLayout::kFullLoad).total_j();
          if (full > grid.at(a, n, ranks, hw::LoadLayout::kHalfLoadOneSocket)
                         .total_j() ||
              full > grid.at(a, n, ranks,
                             hw::LoadLayout::kHalfLoadTwoSockets)
                         .total_j()) {
            claim.pass = false;
          }
          ++cells;
        }
      }
    }
    claim.evidence = "checked " + std::to_string(cells) + " cells";
    claims.push_back(claim);
  }

  // --- Figure 5: ScaLAPACK wins dense, IMe wins distributed ----------------
  {
    Claim claim{"fig5-dense",
                "ScaLAPACK is faster in the dense configurations "
                "(n >= 25920, excluding the 1296/25920 near-tie)",
                true, ""};
    for (int ranks : hw::kPaperRankCounts) {
      for (std::size_t n : {25920ul, 34560ul}) {
        if (ranks == 1296 && n == 25920) continue;
        if (grid.at(A::kScalapack, n, ranks).duration_s >=
            grid.at(A::kIme, n, ranks).duration_s) {
          claim.pass = false;
        }
      }
    }
    claims.push_back(claim);

    Claim ime_claim{"fig5-distributed",
                    "IMe is faster at 576/1296 ranks for n = 8640/17280",
                    true, ""};
    std::ostringstream evidence;
    for (int ranks : {576, 1296}) {
      for (std::size_t n : {8640ul, 17280ul}) {
        const double ti = grid.at(A::kIme, n, ranks).duration_s;
        const double ts = grid.at(A::kScalapack, n, ranks).duration_s;
        if (ti >= ts) ime_claim.pass = false;
        evidence << "(" << n << "," << ranks << "): "
                 << format_fixed(ti / ts, 2) << "x  ";
      }
    }
    ime_claim.evidence = evidence.str();
    claims.push_back(ime_claim);
  }

  // --- §5.4: energy gap 50-60% at dense cells, shrinking when distributed --
  {
    const double dense = grid.at(A::kIme, 34560, 144).total_j() /
                         grid.at(A::kScalapack, 34560, 144).total_j();
    const double distributed =
        grid.at(A::kIme, 8640, 1296).total_j() /
        grid.at(A::kScalapack, 8640, 1296).total_j();
    Claim claim{"s54-energy",
                "total energy gap ~50-60% in ScaLAPACK's favour at the "
                "dense corner, shrinking toward the distributed corner",
                dense > 1.7 && dense < 2.7 && distributed < dense, ""};
    claim.evidence = "dense ratio " + format_fixed(dense, 2) +
                     ", distributed ratio " + format_fixed(distributed, 2);
    claims.push_back(claim);
  }

  // --- Figure 6: power gap 12-18%, flat across n ----------------------------
  {
    double lo = 1e300;
    double hi = 0.0;
    for (std::size_t n : hw::kPaperMatrixSizes) {
      for (int ranks : hw::kPaperRankCounts) {
        const double ratio = grid.at(A::kIme, n, ranks).avg_power_w() /
                             grid.at(A::kScalapack, n, ranks).avg_power_w();
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
      }
    }
    Claim claim{"fig6-power", "IMe/ScaLAPACK power ratio in a ~12-18% band",
                lo > 1.05 && hi < 1.22, ""};
    claim.evidence = "ratios span " + format_fixed(lo, 3) + " .. " +
                     format_fixed(hi, 3);
    claims.push_back(claim);
  }

  // --- §5.3: one-socket deployments show the package imbalance -------------
  {
    const auto& p =
        grid.at(A::kIme, 17280, 576, hw::LoadLayout::kHalfLoadOneSocket);
    const double drop = 1.0 - p.pkg_j[1] / p.pkg_j[0];
    Claim claim{"s53-socket",
                "the nominally idle socket consumes ~40-60% less than the "
                "busy one (not ~0)",
                drop > 0.30 && drop < 0.65, ""};
    claim.evidence = "pkg1 lower by " + format_fixed(100.0 * drop, 1) + "%";
    claims.push_back(claim);
  }

  // --- §5.4: DRAM power gap favours ScaLAPACK everywhere -------------------
  {
    Claim claim{"s54-dram", "IMe draws more DRAM power in every cell", true,
                ""};
    for (std::size_t n : hw::kPaperMatrixSizes) {
      for (int ranks : hw::kPaperRankCounts) {
        if (grid.at(A::kIme, n, ranks).dram_power_w() <=
            grid.at(A::kScalapack, n, ranks).dram_power_w()) {
          claim.pass = false;
        }
      }
    }
    claims.push_back(claim);
  }

  // --- render ----------------------------------------------------------------
  int failures = 0;
  if (markdown) {
    std::cout << "| claim | status | evidence |\n|---|---|---|\n";
  } else {
    std::cout << "powerlin reproduction report (replay tier, Marconi A3 "
                 "model)\n\n";
  }
  for (const Claim& claim : claims) {
    if (!claim.pass) ++failures;
    if (markdown) {
      std::cout << "| " << claim.text << " | "
                << (claim.pass ? "PASS" : "FAIL") << " | " << claim.evidence
                << " |\n";
    } else {
      std::cout << (claim.pass ? "[PASS] " : "[FAIL] ") << claim.id << ": "
                << claim.text
                << (claim.evidence.empty() ? "" : " — " + claim.evidence)
                << "\n";
    }
  }
  std::cout << "\n" << (claims.size() - failures) << "/" << claims.size()
            << " paper claims reproduced.\n";
  return failures == 0 ? 0 : 1;
}
