// Tests for the prof span-tracing subsystem: canonical exports are
// byte-identical across worker counts, per-phase energy
// attribution reconciles exactly against the run's EnergyLedger totals,
// the communication matrix matches the runtime's traffic counters, the
// critical path accounts for the full virtual duration, ring overflow
// stays deterministic, and summary.json round-trips through the parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hwmodel/placement.hpp"
#include "prof/analysis.hpp"
#include "prof/export.hpp"
#include "prof/recorder.hpp"
#include "solvers/gepp/mixed.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "support/json.hpp"
#include "xmpi/runtime.hpp"

namespace plin::prof {
namespace {

xmpi::RunConfig mini_config(int ranks) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/8, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  config.trace = true;
  return config;
}

/// Phase-bracketed mixed workload: unequal compute, point-to-point chains
/// that force real waits (so the critical path has sender jumps), several
/// collectives, memory traffic and instants.
void mixed_workload(xmpi::Comm& comm) {
  const int rank = comm.rank();
  const int size = comm.size();

  comm.prof_phase_begin("test:compute");
  comm.compute(xmpi::ComputeCost{2.0e6 * (rank + 1), 8192.0 * (rank % 3)});
  comm.memory_touch(32.0 * 1024.0 * (rank + 1));
  comm.prof_phase_end();

  comm.prof_instant("test:mark");

  comm.prof_phase_begin("test:exchange");
  const int next = (rank + 1) % size;
  const int prev = (rank + size - 1) % size;
  for (int round = 0; round < 3; ++round) {
    comm.send_value(rank * 100 + round, next, /*tag=*/round);
    (void)comm.recv_value<int>(prev, /*tag=*/round);
  }
  comm.prof_phase_end();

  comm.prof_phase_begin("test:collectives");
  comm.barrier();
  double seed = rank == 0 ? 3.25 : 0.0;
  comm.bcast_value(seed, /*root=*/0);
  (void)comm.allreduce_value(static_cast<double>(rank), xmpi::ReduceOp::kSum);
  comm.prof_phase_end();
}

/// All canonical bytes of one trace, concatenated: the Perfetto document
/// plus the summary and the three CSV tables.
std::string canonical_bytes(const TraceData& trace) {
  const EnergyAttribution energy = attribute_energy(trace);
  const CommMatrix comm = comm_matrix(trace);
  const CriticalPath path = critical_path(trace);
  return perfetto_json(trace) +
         json::serialize(summary_json(trace, energy, comm, path)) +
         phases_csv(energy) + comm_matrix_csv(comm) +
         critical_path_csv(path);
}

TEST(ProfTest, CompiledIn) {
  // This suite only runs in the default configuration; a -DPLIN_PROF=OFF
  // build compiles the hooks out and is covered by bench_prof
  // (compiled_in=false in BENCH_prof.json), not by these tests.
  EXPECT_TRUE(kCompiledIn);
}

TEST(ProfTest, DisabledRunsCarryNoTrace) {
  xmpi::RunConfig config = mini_config(8);
  config.trace = false;
  const xmpi::RunResult result = xmpi::Runtime::run(config, mixed_workload);
  EXPECT_EQ(result.trace, nullptr);
}

TEST(ProfTest, CanonicalBytesIdenticalAcrossWorkersAndExecutors) {
  xmpi::RunConfig config = mini_config(12);

  config.workers = 2;
  const xmpi::RunResult two = xmpi::Runtime::run(config, mixed_workload);
  config.workers = 5;
  const xmpi::RunResult five = xmpi::Runtime::run(config, mixed_workload);
  config.workers = 12;  // one host worker per rank
  const xmpi::RunResult threads = xmpi::Runtime::run(config, mixed_workload);

  ASSERT_NE(two.trace, nullptr);
  ASSERT_NE(five.trace, nullptr);
  ASSERT_NE(threads.trace, nullptr);
  const std::string reference = canonical_bytes(*two.trace);
  EXPECT_EQ(reference, canonical_bytes(*five.trace));
  EXPECT_EQ(reference, canonical_bytes(*threads.trace));
}

TEST(ProfTest, TraceBundleFilesIdenticalAcrossWorkerCounts) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::temp_directory_path() / "plin_prof_bundle_test";
  fs::remove_all(base);

  xmpi::RunConfig config = mini_config(10);
  config.workers = 2;
  config.trace_dir = (base / "a").string();
  (void)xmpi::Runtime::run(config, mixed_workload);
  config.workers = 7;
  config.trace_dir = (base / "b").string();
  (void)xmpi::Runtime::run(config, mixed_workload);

  const char* kFiles[] = {"trace.json", "summary.json", "phases.csv",
                          "comm_matrix.csv", "critical_path.csv"};
  for (const char* name : kFiles) {
    std::ifstream a(base / "a" / name, std::ios::binary);
    std::ifstream b(base / "b" / name, std::ios::binary);
    ASSERT_TRUE(a.good()) << name;
    ASSERT_TRUE(b.good()) << name;
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << name;
    EXPECT_FALSE(sa.str().empty()) << name;
  }
  fs::remove_all(base);
}

TEST(ProfTest, EnergyAttributionSumsExactlyToLedgerTotals) {
  xmpi::RunConfig config = mini_config(8);
  const xmpi::RunResult result =
      xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
        solvers::PdgesvOptions options;
        options.n = 96;
        options.seed = 11;
        (void)solve_pdgesv(comm, options);
      });
  ASSERT_NE(result.trace, nullptr);

  const EnergyAttribution energy = attribute_energy(*result.trace);
  EXPECT_TRUE(energy.complete);
  ASSERT_FALSE(energy.rows.empty());
  EXPECT_EQ(energy.rows.back().phase, "(baseline)");

  // The contract: folding the rows front to back reproduces the totals
  // bit-exactly, and the totals ARE the RunResult energy report. EXPECT_EQ
  // on doubles is deliberate — not EXPECT_NEAR.
  double cpu = 0.0;
  double dram = 0.0;
  for (const PhaseEnergyRow& row : energy.rows) {
    cpu += row.cpu_j;
    dram += row.dram_j;
  }
  EXPECT_EQ(cpu, energy.total_cpu_j);
  EXPECT_EQ(dram, energy.total_dram_j);
  EXPECT_EQ(energy.total_cpu_j, result.energy.total_pkg_j());
  EXPECT_EQ(energy.total_dram_j, result.energy.total_dram_j());

  // The solver phases must actually show up as attribution rows.
  bool saw_gemm = false;
  bool saw_panel = false;
  for (const PhaseEnergyRow& row : energy.rows) {
    if (row.phase == "gepp:gemm") saw_gemm = true;
    if (row.phase == "gepp:factor_panel") saw_panel = true;
    EXPECT_GE(row.seconds, 0.0) << row.phase;
  }
  EXPECT_TRUE(saw_gemm);
  EXPECT_TRUE(saw_panel);
}

TEST(ProfTest, Fp32GemmChargesHalfTheDramBytesOfFp64) {
  // On one rank (no messages) the charged GEMM flops depend only on n and
  // nb, so the fp32 trailing updates of gepp_mixed must stream exactly half
  // the DRAM bytes, hence half the DRAM joules, of pdgesv's fp64 ones.
  const auto gemm_dram_j = [](const char* phase, auto&& solve) {
    const xmpi::RunResult result =
        xmpi::Runtime::run(mini_config(1), [&](xmpi::Comm& comm) {
          solve(comm);
        });
    double dram_j = -1.0;
    for (const PhaseEnergyRow& row : attribute_energy(*result.trace).rows) {
      if (row.phase == phase) dram_j = row.dram_j;
    }
    return dram_j;
  };
  const double fp64 = gemm_dram_j("gepp:gemm", [](xmpi::Comm& comm) {
    solvers::PdgesvOptions options;
    options.n = 256;
    options.nb = 32;
    (void)solve_pdgesv(comm, options);
  });
  const double fp32 = gemm_dram_j("gepp32:gemm", [](xmpi::Comm& comm) {
    solvers::GeppMixedOptions options;
    options.n = 256;
    options.nb = 32;
    EXPECT_FALSE(solve_gepp_mixed(comm, options).fell_back);
  });
  EXPECT_GT(fp32, 0.0);
  EXPECT_EQ(2.0 * fp32, fp64);
}

TEST(ProfTest, CommMatrixMatchesRuntimeTrafficCounters) {
  xmpi::RunConfig config = mini_config(9);
  const xmpi::RunResult result = xmpi::Runtime::run(config, mixed_workload);
  ASSERT_NE(result.trace, nullptr);

  const CommMatrix matrix = comm_matrix(*result.trace);
  EXPECT_EQ(matrix.ranks, 9);
  EXPECT_EQ(matrix.total_messages,
            result.traffic.data_messages + result.traffic.control_messages);
  EXPECT_EQ(matrix.total_bytes,
            result.traffic.data_bytes + result.traffic.control_bytes);
  EXPECT_GE(matrix.total_wait_s, 0.0);

  std::uint64_t edge_messages = 0;
  int last_src = -1;
  int last_dst = -1;
  for (const CommEdge& edge : matrix.edges) {
    EXPECT_GT(edge.messages, 0u);
    // Sorted by (src, dst), no duplicates.
    EXPECT_TRUE(edge.src > last_src ||
                (edge.src == last_src && edge.dst > last_dst));
    last_src = edge.src;
    last_dst = edge.dst;
    edge_messages += edge.messages;
  }
  EXPECT_EQ(edge_messages, matrix.total_messages);
}

TEST(ProfTest, CriticalPathAccountsForFullDuration) {
  xmpi::RunConfig config = mini_config(12);
  const xmpi::RunResult result = xmpi::Runtime::run(config, mixed_workload);
  ASSERT_NE(result.trace, nullptr);

  const CriticalPath path = critical_path(*result.trace);
  EXPECT_EQ(path.duration_s, result.duration_s);
  EXPECT_FALSE(path.truncated);
  ASSERT_GE(path.end_rank, 0);
  ASSERT_LT(path.end_rank, 12);

  // Unequal compute + ring exchange forces at least one genuine wait, so
  // the walk must jump ranks; and the path segments must tile the full
  // duration (nothing on the chain is unaccounted).
  EXPECT_GT(path.rank_switches, 0);
  const double covered = path.compute_s + path.membound_s +
                         path.commactive_s + path.commwait_s +
                         path.network_s;
  EXPECT_NEAR(covered, path.duration_s, 1e-9 * (1.0 + path.duration_s));

  double critical_total = 0.0;
  for (const CriticalPhase& phase : path.phases) {
    EXPECT_GE(phase.critical_s, 0.0) << phase.phase;
    EXPECT_GE(phase.total_rank_s, -1e-12) << phase.phase;
    critical_total += phase.critical_s;
  }
  EXPECT_NEAR(critical_total + path.network_s, path.duration_s,
              1e-9 * (1.0 + path.duration_s));
}

TEST(ProfTest, RingOverflowIsCountedAndStaysDeterministic) {
  xmpi::RunConfig config = mini_config(8);
  config.trace_ring_spans = 16;  // force heavy eviction

  config.workers = 2;
  const xmpi::RunResult a = xmpi::Runtime::run(config, mixed_workload);
  config.workers = 6;
  const xmpi::RunResult b = xmpi::Runtime::run(config, mixed_workload);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);

  EXPECT_GT(a.trace->dropped_spans(), 0u);
  EXPECT_EQ(a.trace->ring_capacity, 16u);

  // Attribution flags the loss instead of silently misreporting...
  const EnergyAttribution energy = attribute_energy(*a.trace);
  EXPECT_FALSE(energy.complete);
  EXPECT_EQ(energy.dropped_spans, a.trace->dropped_spans());

  // ...while the per-peer counters stay exact (matrix still reconciles)...
  const CommMatrix matrix = comm_matrix(*a.trace);
  EXPECT_EQ(matrix.total_messages,
            a.traffic.data_messages + a.traffic.control_messages);
  EXPECT_EQ(matrix.total_bytes,
            a.traffic.data_bytes + a.traffic.control_bytes);

  // ...and eviction follows virtual time, not host scheduling: the
  // truncated trace is still byte-identical across worker counts.
  EXPECT_EQ(canonical_bytes(*a.trace), canonical_bytes(*b.trace));
}

TEST(ProfTest, SummaryJsonRoundTripsAndReconciles) {
  xmpi::RunConfig config = mini_config(6);
  const xmpi::RunResult result =
      xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
        solvers::ImepOptions options;
        options.n = 60;
        options.seed = 3;
        (void)solve_imep(comm, options);
      });
  ASSERT_NE(result.trace, nullptr);

  const std::string text = json::serialize(summary_json(*result.trace));
  const json::Value doc = json::parse(text);
  // serialize(parse(serialize)) is byte-identical — the determinism
  // property every canonical export leans on.
  EXPECT_EQ(json::serialize(doc), text);

  EXPECT_EQ(doc.at("schema").as_string(), "powerlin-trace-summary/v1");
  EXPECT_EQ(doc.at("ranks").as_number(), 6.0);
  EXPECT_EQ(doc.at("duration_s").as_number(), result.duration_s);
  EXPECT_EQ(doc.at("energy").at("total_cpu_j").as_number(),
            result.energy.total_pkg_j());
  EXPECT_EQ(doc.at("energy").at("total_dram_j").as_number(),
            result.energy.total_dram_j());
  EXPECT_FALSE(doc.at("energy").at("phases").as_array().empty());
  EXPECT_FALSE(doc.at("comm").at("edges").as_array().empty());
  EXPECT_FALSE(doc.at("critical_path").at("phases").as_array().empty());
}

TEST(ProfTest, SolverPhasesAppearInImeTraces) {
  xmpi::RunConfig config = mini_config(6);
  const xmpi::RunResult result =
      xmpi::Runtime::run(config, [](xmpi::Comm& comm) {
        solvers::ImepOptions options;
        options.n = 48;
        options.seed = 5;
        (void)solve_imep(comm, options);
      });
  ASSERT_NE(result.trace, nullptr);

  const EnergyAttribution energy = attribute_energy(*result.trace);
  bool saw_update = false;
  bool saw_solution = false;
  for (const PhaseEnergyRow& row : energy.rows) {
    if (row.phase == "ime:update") saw_update = true;
    if (row.phase == "ime:solution") saw_solution = true;
  }
  EXPECT_TRUE(saw_update);
  EXPECT_TRUE(saw_solution);
}

}  // namespace
}  // namespace plin::prof
