// Tests for the white-box monitoring framework — the paper's contribution:
// rank grouping, monitoring-rank election, barrier-bracketed PAPI windows,
// per-processor files, aggregation, overhead, and the campaign harness.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hwmodel/placement.hpp"
#include "monitor/campaign.hpp"
#include "monitor/monitoring.hpp"
#include "monitor/white_box.hpp"
#include "solvers/cg/cg.hpp"
#include "solvers/ime/imep.hpp"
#include "xmpi/runtime.hpp"

namespace plin::monitor {
namespace {

xmpi::RunConfig mini_config(int ranks) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/16, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

void run_solver(xmpi::Comm& comm, std::size_t n) {
  solvers::ImepOptions options;
  options.n = n;
  options.seed = 11;
  (void)solve_imep(comm, options);
}

TEST(WhiteBoxMonitor, MeasuresSolverEnergyOnEveryNode) {
  // 16 ranks on 8-core nodes => 2 nodes, 2 monitoring ranks.
  RunMeasurement on_rank0;
  xmpi::Runtime::run(mini_config(16), [&](xmpi::Comm& world) {
    const RunMeasurement m = monitored_run(
        world, MonitorOptions{},
        [](xmpi::Comm& comm) { run_solver(comm, 512); });
    EXPECT_GT(m.duration_s, 0.0);
    EXPECT_GT(m.total_pkg_j(), 0.0);
    EXPECT_GT(m.total_dram_j(), 0.0);
    if (world.rank() == 0) on_rank0 = m;
  });
  ASSERT_EQ(on_rank0.nodes.size(), 2u);
  EXPECT_EQ(on_rank0.nodes[0].node, 0);
  EXPECT_EQ(on_rank0.nodes[1].node, 1);
  for (const NodeReport& node : on_rank0.nodes) {
    EXPECT_GT(node.duration_s(), 0.0);
    EXPECT_GT(node.pkg_j[0], 0.0);
    EXPECT_GT(node.pkg_j[1], 0.0);  // full load: both sockets active
    EXPECT_GT(node.total_j(), 0.0);
  }
}

TEST(WhiteBoxMonitor, MonitoringRankIsHighestOfEachNode) {
  RunMeasurement on_rank0;
  xmpi::Runtime::run(mini_config(16), [&](xmpi::Comm& world) {
    const RunMeasurement m = monitored_run(
        world, MonitorOptions{},
        [](xmpi::Comm& comm) { run_solver(comm, 48); });
    if (world.rank() == 0) on_rank0 = m;
  });
  ASSERT_EQ(on_rank0.nodes.size(), 2u);
  EXPECT_EQ(on_rank0.nodes[0].monitoring_world_rank, 7);
  EXPECT_EQ(on_rank0.nodes[1].monitoring_world_rank, 15);
}

TEST(WhiteBoxMonitor, SummaryIsReplicatedOnEveryRank) {
  std::vector<double> durations(8, -1.0);
  std::vector<double> totals(8, -1.0);
  xmpi::Runtime::run(mini_config(8), [&](xmpi::Comm& world) {
    const RunMeasurement m = monitored_run(
        world, MonitorOptions{},
        [](xmpi::Comm& comm) { run_solver(comm, 256); });
    durations[static_cast<std::size_t>(world.rank())] = m.duration_s;
    totals[static_cast<std::size_t>(world.rank())] = m.total_j();
  });
  for (int r = 1; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(durations[static_cast<std::size_t>(r)], durations[0]);
    EXPECT_DOUBLE_EQ(totals[static_cast<std::size_t>(r)], totals[0]);
  }
}

TEST(WhiteBoxMonitor, MeasuredEnergyIsWithinRunTotal) {
  // The monitored window is a subset of the run, so its energy must be
  // positive, below the ledger's full-run total, and still the lion's
  // share (the solver dominates).
  double measured = 0.0;
  const xmpi::RunResult run =
      xmpi::Runtime::run(mini_config(8), [&](xmpi::Comm& world) {
        const RunMeasurement m = monitored_run(
            world, MonitorOptions{},
            [](xmpi::Comm& comm) { run_solver(comm, 512); });
        if (world.rank() == 0) measured = m.total_j();
      });
  EXPECT_GT(measured, 0.0);
  EXPECT_LE(measured, run.energy.total_j());
  EXPECT_GT(measured, 0.5 * run.energy.total_j());
}

TEST(WhiteBoxMonitor, WritesPerProcessorFiles) {
  const std::string dir = ::testing::TempDir() + "powerlin_monitor_files";
  std::filesystem::remove_all(dir);
  MonitorOptions options;
  options.output_dir = dir;
  xmpi::Runtime::run(mini_config(16), [&](xmpi::Comm& world) {
    (void)monitored_run(world, options,
                        [](xmpi::Comm& comm) { run_solver(comm, 48); });
  });
  for (int node = 0; node < 2; ++node) {
    const std::string path = dir + "/processor_" + std::to_string(node) +
                             ".txt";
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::ifstream is(path);
    std::string content((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("monitored_duration_s"), std::string::npos);
    EXPECT_NE(content.find("powercap:::ENERGY_UJ:ZONE0"), std::string::npos);
    EXPECT_NE(content.find("powercap:::ENERGY_UJ:ZONE1_SUBZONE0"),
              std::string::npos);
    EXPECT_NE(content.find("package_0_J"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(WhiteBoxMonitor, OverheadIsSmall) {
  // The paper accepts "a slight overhead compromise due to
  // synchronization". Quantify it: monitored duration must exceed the raw
  // run by only a small factor.
  const auto raw = xmpi::Runtime::run(mini_config(8), [](xmpi::Comm& world) {
    run_solver(world, 160);
  });
  const auto monitored =
      xmpi::Runtime::run(mini_config(8), [](xmpi::Comm& world) {
        (void)monitored_run(world, MonitorOptions{},
                            [](xmpi::Comm& comm) { run_solver(comm, 160); });
      });
  EXPECT_GT(monitored.duration_s, raw.duration_s);
  EXPECT_LT(monitored.duration_s, 1.10 * raw.duration_s);
}

TEST(WhiteBoxMonitor, BlackBoxVariantAlsoMeasures) {
  xmpi::Runtime::run(mini_config(8), [&](xmpi::Comm& world) {
    const RunMeasurement m = blackbox_run(
        world, MonitorOptions{},
        [](xmpi::Comm& comm) { run_solver(comm, 384); });
    EXPECT_GT(m.total_j(), 0.0);
    EXPECT_GT(m.duration_s, 0.0);
  });
}

TEST(WhiteBoxMonitor, SingleNodeSingleRankWorks) {
  xmpi::Runtime::run(mini_config(1), [&](xmpi::Comm& world) {
    const RunMeasurement m = monitored_run(
        world, MonitorOptions{},
        [](xmpi::Comm& comm) { run_solver(comm, 448); });
    EXPECT_GT(m.total_j(), 0.0);
  });
}

/// Everything a monitored run reports in virtual time or modeled joules.
struct MonitoredOutputs {
  double duration_s = 0.0;
  std::vector<double> rank_times;
  double total_j = 0.0;
  RunMeasurement measured;
};

MonitoredOutputs run_monitored(std::size_t workers,
                               void (*workload)(xmpi::Comm&)) {
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(/*nodes=*/8, /*cores_per_socket=*/4);
  config.placement =
      hw::make_placement(16, hw::LoadLayout::kFullLoad, config.machine);
  config.workers = workers;
  MonitoredOutputs out;
  const xmpi::RunResult run =
      xmpi::Runtime::run(config, [&](xmpi::Comm& world) {
        const RunMeasurement m =
            monitored_run(world, MonitorOptions{}, workload);
        if (world.rank() == 0) out.measured = m;
      });
  out.duration_s = run.duration_s;
  out.rank_times = run.rank_times;
  out.total_j = run.energy.total_j();
  return out;
}

TEST(WhiteBoxMonitor, OutputsAreBitIdenticalAcrossWorkerCounts) {
  // Host scheduling must not reach virtual time or energy: every run of
  // the same job, at any worker count, reports the same bits. The empty
  // workload leaves only the report gather; IMe is one dense point; CG on
  // the random family is the memory-bound halo/allreduce loop.
  const std::pair<const char*, void (*)(xmpi::Comm&)> workloads[] = {
      {"empty", [](xmpi::Comm&) {}},
      {"ime n=256", [](xmpi::Comm& comm) { run_solver(comm, 256); }},
      {"cg random n=8192",
       [](xmpi::Comm& comm) {
         solvers::CgOptions options;
         options.kind = sparse::SparseKind::kRandom;
         options.n = 8192;
         (void)solve_pcg(comm, options);
       }},
  };
  for (const auto& [name, workload] : workloads) {
    const MonitoredOutputs reference = run_monitored(1, workload);
    ASSERT_EQ(reference.measured.nodes.size(), 2u);
    for (const std::size_t workers : {1u, 2u, 4u, 16u}) {
      for (int rep = 0; rep < 5; ++rep) {
        SCOPED_TRACE(std::string(name) +
                     " workers=" + std::to_string(workers) +
                     " rep=" + std::to_string(rep));
        const MonitoredOutputs got = run_monitored(workers, workload);
        EXPECT_EQ(got.duration_s, reference.duration_s);
        EXPECT_EQ(got.rank_times, reference.rank_times);
        EXPECT_EQ(got.total_j, reference.total_j);
        EXPECT_EQ(got.measured.duration_s, reference.measured.duration_s);
        for (int p = 0; p < 2; ++p) {
          EXPECT_EQ(got.measured.pkg_j[p], reference.measured.pkg_j[p]);
          EXPECT_EQ(got.measured.dram_j[p], reference.measured.dram_j[p]);
        }
      }
    }
  }
}

TEST(WhiteBoxMonitor, PhasesPartitionTheTotal) {
  // Two phases: an allocation-style memory sweep, then the solver. The
  // per-phase windows must tile the total (durations and energies add up)
  // and the execution phase must dominate (the paper's §5.3 observation).
  PhasedMeasurement on_rank0;
  xmpi::Runtime::run(mini_config(8), [&](xmpi::Comm& world) {
    std::vector<Phase> phases;
    phases.push_back(Phase{"allocation", [](xmpi::Comm& comm) {
                             comm.memory_touch(8.0 * 512 * 512 / 8);
                           }});
    phases.push_back(
        Phase{"execution", [](xmpi::Comm& comm) { run_solver(comm, 512); }});
    const PhasedMeasurement m =
        monitored_run_phases(world, MonitorOptions{}, std::move(phases));
    if (world.rank() == 0) on_rank0 = m;
  });
  ASSERT_EQ(on_rank0.phases.size(), 2u);
  EXPECT_EQ(on_rank0.phases[0].first, "allocation");
  EXPECT_EQ(on_rank0.phases[1].first, "execution");

  const RunMeasurement& alloc = on_rank0.phases[0].second;
  const RunMeasurement& exec = on_rank0.phases[1].second;
  EXPECT_GT(exec.total_j(), 0.0);
  EXPECT_GT(exec.duration_s, alloc.duration_s);
  EXPECT_GT(exec.total_j(), alloc.total_j());
  // Tiling: phase durations/energies sum to the total within the RAPL
  // millisecond quantization.
  EXPECT_NEAR(alloc.duration_s + exec.duration_s, on_rank0.total.duration_s,
              0.002);
  EXPECT_NEAR(alloc.total_j() + exec.total_j(), on_rank0.total.total_j(),
              0.15 * on_rank0.total.total_j() + 0.3);
}

TEST(WhiteBoxMonitor, PhasesRejectEmptyList) {
  xmpi::Runtime::run(mini_config(2), [&](xmpi::Comm& world) {
    EXPECT_THROW(monitored_run_phases(world, MonitorOptions{}, {}), Error);
  });
}

TEST(MonitoringSessionTest, MisuseIsRejected) {
  xmpi::Runtime::run(mini_config(1), [&](xmpi::Comm& world) {
    MonitoringSession session;
    EXPECT_THROW(session.stop(world), Error);  // not started
    session.start(world);
    EXPECT_THROW(session.start(world), Error);  // double start
    session.stop(world);
    session.terminate();
    session.terminate();  // idempotent
  });
}

TEST(MonitoringSessionTest, UnknownComponentIsRejected) {
  xmpi::Runtime::run(mini_config(1), [&](xmpi::Comm& world) {
    MonitoringSession session;
    EXPECT_THROW(session.start(world, "no-such-component"), Error);
  });
}

TEST(MonitoringSessionTest, RaplComponentWorksToo) {
  xmpi::Runtime::run(mini_config(1), [&](xmpi::Comm& world) {
    MonitoringSession session;
    session.start(world, "rapl");
    world.compute(xmpi::ComputeCost{6.72e8, 0.0, 1.0});  // 10 ms
    session.stop(world);
    // rapl counts nanojoules; samples must be positive.
    ASSERT_FALSE(session.samples().empty());
    EXPECT_GT(session.samples()[0].value, 0);
  });
}

TEST(Campaign, RunsJobAndChecksResiduals) {
  const hw::MachineSpec machine = hw::mini_cluster(8, 4);
  JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kIme;
  spec.n = 512;
  spec.ranks = 4;
  spec.repetitions = 2;
  const JobResult result = run_job(machine, spec);
  ASSERT_EQ(result.repetitions.size(), 2u);
  EXPECT_GT(result.mean_duration_s(), 0.0);
  EXPECT_GT(result.mean_total_j(), 0.0);
  EXPECT_GT(result.mean_power_w(), 0.0);
  EXPECT_LT(result.worst_residual(), 1e-12);
  // Determinism: repetitions of the same seeded job measure identically.
  EXPECT_DOUBLE_EQ(result.repetitions[0].measurement.duration_s,
                   result.repetitions[1].measurement.duration_s);
}

TEST(Campaign, ScalapackJobWorks) {
  const hw::MachineSpec machine = hw::mini_cluster(8, 4);
  JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = 256;
  spec.ranks = 4;
  spec.nb = 16;
  spec.repetitions = 1;
  const JobResult result = run_job(machine, spec);
  EXPECT_LT(result.worst_residual(), 1e-12);
}

TEST(Campaign, TableAndCsvRender) {
  const hw::MachineSpec machine = hw::mini_cluster(8, 4);
  JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kIme;
  spec.n = 256;
  spec.ranks = 2;
  spec.repetitions = 1;
  const JobResult result = run_job(machine, spec);
  const std::vector<JobResult> jobs = {result};

  std::ostringstream table;
  print_campaign_table(table, jobs);
  EXPECT_NE(table.str().find("IMe"), std::string::npos);
  EXPECT_NE(table.str().find("duration"), std::string::npos);

  std::ostringstream csv;
  write_campaign_csv(csv, jobs);
  EXPECT_NE(csv.str().find("algorithm,n,ranks"), std::string::npos);
  EXPECT_NE(csv.str().find("IMe,256,2"), std::string::npos);
}

TEST(Campaign, WriterBytesArePinned) {
  // Hand-built results of each kind: dense fp64, mixed scalapack (3
  // refinement sweeps), cg stencil5 and cg banded+jacobi.
  const perfsim::Algorithm algorithms[] = {
      perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack,
      perfsim::Algorithm::kCg, perfsim::Algorithm::kCg};
  const std::size_t sizes[] = {256, 1024, 4096, 4096};
  const int ranks[] = {4, 16, 4, 8};
  const double durations[] = {0.00123, 0.0421, 0.0005, 0.0004};
  const int cg_iters[] = {0, 0, 61, 42};
  const std::size_t nnz[] = {0, 0, 20224, 69184};
  const int reps[] = {2, 1, 2, 1};
  std::vector<JobResult> jobs(4);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobSpec& spec = jobs[j].spec;
    spec.algorithm = algorithms[j];
    spec.n = sizes[j];
    spec.ranks = ranks[j];
    spec.repetitions = reps[j];
    for (int r = 0; r < reps[j]; ++r) {
      // The dense job's second repetition runs a little longer.
      const double d = durations[j] + (j == 0 ? 2e-5 * r : 0.0);
      RepetitionResult rep;
      rep.measurement.duration_s = d;
      rep.measurement.pkg_j[0] = 1.5 * d * 1000;
      rep.measurement.pkg_j[1] = 1.25 * d * 1000;
      rep.measurement.dram_j[0] = 0.125;
      rep.measurement.dram_j[1] = 0.0625;
      rep.residual = 3.0e-17 * (1 + cg_iters[j]);
      rep.host_seconds = 0.25;
      rep.cg_iters = cg_iters[j];
      rep.nnz = nnz[j];
      if (cg_iters[j] > 0) {
        rep.halo_messages = 168;
        rep.halo_bytes = 56448;
      }
      rep.refine_iters = j == 1 ? 3 : 0;
      jobs[j].repetitions.push_back(rep);
    }
  }
  jobs[1].spec.precision = perfsim::Precision::kMixed;
  jobs[3].spec.matrix = sparse::SparseKind::kBanded;
  jobs[3].spec.precond = solvers::CgPrecond::kJacobi;

  std::ostringstream table;
  print_campaign_table(table, jobs);
  EXPECT_EQ(table.str(), R"pin(+-----------+-----------+----------+---------+------+-------+-----------+------+----------+------------+-------------+--------+---------+----------+-------+-------+-----------+------------+
| algorithm | precision | matrix   | precond | n    | ranks | layout    | reps | duration | PKG energy | DRAM energy | total  | power   | residual | iters | nnz   | halo msgs | halo bytes |
+-----------+-----------+----------+---------+------+-------+-----------+------+----------+------------+-------------+--------+---------+----------+-------+-------+-----------+------------+
| IMe       | fp64      | -        | -       |  256 |     4 | full-load |    2 |  1.24 ms |     3.41 J |      188 mJ | 3.60 J | 2.90 kW | 0.03e-15 | -     | -     | -         | -          |
| ScaLAPACK | mixed     | -        | -       | 1024 |    16 | full-load |    1 |  42.1 ms |      116 J |      188 mJ |  116 J | 2.75 kW | 0.03e-15 | -     | -     | -         | -          |
| CG        | fp64      | stencil5 | none    | 4096 |     4 | full-load |    2 |   500 us |     1.38 J |      188 mJ | 1.56 J | 3.12 kW | 1.86e-15 |    61 | 20224 |       168 |      56448 |
| CG        | fp64      | banded   | jacobi  | 4096 |     8 | full-load |    1 |   400 us |     1.10 J |      188 mJ | 1.29 J | 3.22 kW | 1.29e-15 |    42 | 69184 |       168 |      56448 |
+-----------+-----------+----------+---------+------+-------+-----------+------+----------+------------+-------------+--------+---------+----------+-------+-------+-----------+------------+
)pin");
  std::ostringstream csv;
  write_campaign_csv(csv, jobs);
  EXPECT_EQ(csv.str(), R"pin(algorithm,precision,matrix,precond,n,ranks,layout,repetition,duration_s,pkg0_j,pkg1_j,dram0_j,dram1_j,total_j,power_w,residual,host_s,cg_iters,nnz,halo_msgs,halo_bytes,refine_iters,fell_back
IMe,fp64,-,-,256,4,full-load,0,0.001230000,1.845000,1.537500,0.125000,0.062500,3.570000,2902.439,0.000000000000000030,0.2500,0,0,0,0,0,0
IMe,fp64,-,-,256,4,full-load,1,0.001250000,1.875000,1.562500,0.125000,0.062500,3.625000,2900.000,0.000000000000000030,0.2500,0,0,0,0,0,0
ScaLAPACK,mixed,-,-,1024,16,full-load,0,0.042100000,63.150000,52.625000,0.125000,0.062500,115.962500,2754.454,0.000000000000000030,0.2500,0,0,0,0,3,0
CG,fp64,stencil5,none,4096,4,full-load,0,0.000500000,0.750000,0.625000,0.125000,0.062500,1.562500,3125.000,0.000000000000001860,0.2500,61,20224,168,56448,0,0
CG,fp64,stencil5,none,4096,4,full-load,1,0.000500000,0.750000,0.625000,0.125000,0.062500,1.562500,3125.000,0.000000000000001860,0.2500,61,20224,168,56448,0,0
CG,fp64,banded,jacobi,4096,8,full-load,0,0.000400000,0.600000,0.500000,0.125000,0.062500,1.287500,3218.750,0.000000000000001290,0.2500,42,69184,168,56448,0,0
)pin");
}

}  // namespace
}  // namespace plin::monitor
