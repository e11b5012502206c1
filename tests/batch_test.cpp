// Tests for the batch campaign orchestrator: manifest parsing and grid
// expansion, content-addressed job keys, the crash-safe result store
// (journal replay, torn-tail recovery, corruption detection), the worker
// queue (caching, retries, timeouts, deterministic interruption) and the
// byte-identical report contract across interrupts and worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/campaign.hpp"
#include "batch/manifest.hpp"
#include "batch/queue.hpp"
#include "batch/record.hpp"
#include "batch/report.hpp"
#include "batch/runner.hpp"
#include "batch/spec.hpp"
#include "batch/store.hpp"
#include "support/error.hpp"

namespace plin::batch {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed up-front so reruns start clean.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "plin_batch_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A 4-job numeric campaign small enough for unit tests.
CampaignManifest tiny_manifest() {
  CampaignManifest manifest;
  manifest.name = "tiny";
  manifest.tier = Tier::kNumeric;
  manifest.machine = "mini:8x4";
  manifest.algorithms = {perfsim::Algorithm::kIme,
                         perfsim::Algorithm::kScalapack};
  manifest.sizes = {96, 128};
  manifest.rank_counts = {4};
  manifest.repetitions = 2;
  return manifest;
}

// --- manifest parsing -------------------------------------------------------

TEST(ManifestTest, ParsesFullManifest) {
  const CampaignManifest m = parse_manifest(R"(# comment
campaign  demo
tier      replay
machine   marconi
reps      3
workers   4
retries   1
timeout_s 600
grid algorithm ime scalapack
grid n         8640 17280
grid ranks     144 576
grid layout    full half1 half2
grid nb        64
grid seed      1 2
)");
  EXPECT_EQ(m.name, "demo");
  EXPECT_EQ(m.tier, Tier::kReplay);
  EXPECT_EQ(m.machine, "marconi");
  EXPECT_EQ(m.repetitions, 3);
  EXPECT_EQ(m.workers, 4);
  EXPECT_EQ(m.retries, 1);
  EXPECT_DOUBLE_EQ(m.timeout_s, 600.0);
  EXPECT_EQ(m.job_count(), 2u * 2u * 2u * 3u * 1u * 2u);
  EXPECT_EQ(m.expand().size(), m.job_count());
}

TEST(ManifestTest, ExpansionIsCanonicalOrder) {
  CampaignManifest m = tiny_manifest();
  const std::vector<JobSpec> jobs = m.expand();
  ASSERT_EQ(jobs.size(), 4u);
  // algorithm outermost, then n.
  EXPECT_EQ(jobs[0].algorithm, perfsim::Algorithm::kIme);
  EXPECT_EQ(jobs[0].n, 96u);
  EXPECT_EQ(jobs[1].n, 128u);
  EXPECT_EQ(jobs[2].algorithm, perfsim::Algorithm::kScalapack);
  EXPECT_EQ(jobs[2].n, 96u);
  for (const JobSpec& job : jobs) {
    EXPECT_EQ(job.tier, Tier::kNumeric);
    EXPECT_EQ(job.machine, "mini:8x4");
    EXPECT_EQ(job.repetitions, 2);
  }
}

TEST(ManifestTest, RejectsUnknownKeyWithLineNumber) {
  try {
    parse_manifest("campaign x\nbogus 1\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ManifestTest, RejectsBadValuesAndEmptyGrids) {
  EXPECT_THROW(parse_manifest("tier warp\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("grid layout diagonal\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("grid n\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("machine nonsuch\n"), InvalidArgument);
  EXPECT_THROW(parse_manifest("reps 0\n"), InvalidArgument);
}

TEST(ManifestTest, RejectsPowerCapsOnReplayTier) {
  EXPECT_THROW(
      parse_manifest("tier replay\nmachine marconi\ngrid power_cap_w 150\n"),
      InvalidArgument);
}

TEST(ManifestTest, PrecisionAxisExpandsForScalapackOnly) {
  const CampaignManifest m = parse_manifest(R"(
machine   mini:8x4
grid algorithm ime scalapack
grid n         96 128
grid precision fp64 mixed
)");
  const std::vector<JobSpec> jobs = m.expand();
  // 2 ime fp64 points + 2 scalapack points x 2 precisions.
  EXPECT_EQ(m.job_count(), 6u);
  ASSERT_EQ(jobs.size(), 6u);
  std::size_t mixed = 0;
  for (const JobSpec& job : jobs) {
    if (job.precision == perfsim::Precision::kMixed) {
      ++mixed;
      EXPECT_EQ(job.algorithm, perfsim::Algorithm::kScalapack);
    }
  }
  EXPECT_EQ(mixed, 2u);
  // Precision is the innermost axis: fp64 immediately precedes its mixed twin.
  EXPECT_EQ(jobs[2].precision, perfsim::Precision::kFp64);
  EXPECT_EQ(jobs[3].precision, perfsim::Precision::kMixed);
  EXPECT_EQ(jobs[3].n, jobs[2].n);
}

TEST(ManifestTest, AcceptsMixedPrecisionOnReplayTier) {
  // The replay tier prices mixed via the refinement-iteration model
  // (perfsim::predict_scalapack_mixed), so the grid parses and expands.
  const CampaignManifest m =
      parse_manifest("tier replay\nmachine marconi\n"
                     "grid algorithm scalapack\n"
                     "grid n 8640\n"
                     "grid precision fp64 mixed\n");
  EXPECT_EQ(m.job_count(), 2u);
  EXPECT_THROW(parse_manifest("grid precision fp16\n"), InvalidArgument);
}

TEST(ManifestTest, PrecondAxisExpandsForCgOnly) {
  const CampaignManifest m = parse_manifest(R"(
machine   mini:8x4
grid algorithm ime cg
grid n         96
grid precond   none jacobi
)");
  const std::vector<JobSpec> jobs = m.expand();
  // 1 ime point + 1 cg point x 2 preconditioners.
  EXPECT_EQ(m.job_count(), 3u);
  ASSERT_EQ(jobs.size(), 3u);
  std::size_t jacobi = 0;
  for (const JobSpec& job : jobs) {
    if (job.precond == solvers::CgPrecond::kJacobi) {
      ++jacobi;
      EXPECT_EQ(job.algorithm, perfsim::Algorithm::kCg);
    }
  }
  EXPECT_EQ(jacobi, 1u);
  EXPECT_THROW(parse_manifest("grid precond ilu\n"), InvalidArgument);
}

// --- spec keys --------------------------------------------------------------

TEST(SpecTest, KeyIsStableAcrossProcesses) {
  // Pinned value: changing the canonical format or hash is a format-version
  // bump and must be deliberate (stale store entries become cache misses).
  EXPECT_EQ(fnv1a64("powerlin"), 0xed687e7bbd43cc01ull);
  const JobSpec spec;
  EXPECT_EQ(spec.key(), JobSpec{}.key());
  EXPECT_EQ(spec.key().size(), 16u);
}

TEST(SpecTest, EveryResultFieldChangesTheKey) {
  const JobSpec base;
  const std::string base_key = base.key();
  JobSpec s = base;
  s.tier = Tier::kReplay;
  s.machine = "marconi";  // replay needs a paper machine; still a key change
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.machine = "mini:8x4";
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.algorithm = perfsim::Algorithm::kScalapack;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.n = 384;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.ranks = 8;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.layout = hw::LoadLayout::kHalfLoadOneSocket;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.nb = 64;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.seed = 2;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.repetitions = 5;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.iterations = 50;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.power_cap_w = 150.0;
  EXPECT_NE(s.key(), base_key);
  s = base;
  s.algorithm = perfsim::Algorithm::kScalapack;
  const std::string fp64_key = s.key();
  s.precision = perfsim::Precision::kMixed;
  EXPECT_NE(s.key(), fp64_key);
}

TEST(SpecTest, DefaultPrecisionKeepsPreExistingStoreKeys) {
  // fp64 is serialized implicitly: the canonical string must not mention
  // precision at all, so every key journaled before the axis existed still
  // hits the cache.
  const JobSpec spec;
  EXPECT_EQ(spec.canonical().find("precision"), std::string::npos);
  JobSpec mixed = spec;
  mixed.algorithm = perfsim::Algorithm::kScalapack;
  mixed.precision = perfsim::Precision::kMixed;
  EXPECT_NE(mixed.canonical().find("|precision=mixed"), std::string::npos);
  EXPECT_NE(mixed.describe().find("mixed"), std::string::npos);
}

TEST(SpecTest, DefaultPrecondKeepsPreExistingStoreKeys) {
  // The precond axis follows the same append-only rule as precision and
  // matrix: absent for the default, so every key journaled before the axis
  // existed (dense or unpreconditioned cg) still hits the cache.
  JobSpec cg;
  cg.algorithm = perfsim::Algorithm::kCg;
  const std::string plain = cg.canonical();
  EXPECT_EQ(plain.find("precond"), std::string::npos);
  EXPECT_NE(plain.find("|matrix="), std::string::npos);

  JobSpec jacobi = cg;
  jacobi.precond = solvers::CgPrecond::kJacobi;
  const std::string preconditioned = jacobi.canonical();
  EXPECT_NE(preconditioned.find("|precond=jacobi"), std::string::npos);
  // Ordered after the matrix token, as documented.
  EXPECT_LT(preconditioned.find("|matrix="),
            preconditioned.find("|precond=jacobi"));
  EXPECT_NE(jacobi.key(), cg.key());
  EXPECT_NE(jacobi.describe().find("jacobi"), std::string::npos);

  // Dense jobs never mention a preconditioner, even if the field is set.
  JobSpec dense;
  dense.precond = solvers::CgPrecond::kJacobi;
  EXPECT_EQ(dense.canonical().find("precond"), std::string::npos);
}

TEST(SpecTest, MachineNamesResolve) {
  EXPECT_GT(machine_from_name("marconi").total_nodes, 0);
  EXPECT_GT(machine_from_name("epyc").total_nodes, 0);
  EXPECT_EQ(machine_from_name("mini:8x4").total_nodes, 8);
  EXPECT_THROW(machine_from_name("mini:0x4"), InvalidArgument);
  EXPECT_THROW(machine_from_name("cray"), InvalidArgument);
}

// --- record serialization ---------------------------------------------------

JobRecord sample_record() {
  JobRecord record;
  record.spec.n = 96;
  record.spec.machine = "mini:8x4";
  record.spec.repetitions = 2;
  RepetitionRecord rep;
  rep.duration_s = 0.001234567891234567;
  rep.pkg_j[0] = 1.5;
  rep.pkg_j[1] = 1.25;
  rep.dram_j[0] = 0.125;
  rep.dram_j[1] = 0.0625;
  rep.residual = 3.0e-17;
  rep.host_s = 0.25;
  record.repetitions = {rep, rep};
  return record;
}

TEST(RecordTest, JsonRoundTripIsExact) {
  const JobRecord record = sample_record();
  const std::string text = json::serialize(to_json(record));
  const JobRecord back = record_from_json(json::parse(text));
  EXPECT_EQ(back.key(), record.key());
  ASSERT_EQ(back.repetitions.size(), 2u);
  EXPECT_EQ(back.repetitions[0].duration_s, record.repetitions[0].duration_s);
  EXPECT_EQ(back.repetitions[0].residual, record.repetitions[0].residual);
  EXPECT_EQ(back.repetitions[0].total_j(), record.repetitions[0].total_j());
  // Second round trip is byte-stable.
  EXPECT_EQ(json::serialize(to_json(back)), text);
}

TEST(RecordTest, MixedPrecisionRoundTripsThroughJson) {
  JobRecord record = sample_record();
  record.spec.algorithm = perfsim::Algorithm::kScalapack;
  record.spec.precision = perfsim::Precision::kMixed;
  const std::string text = json::serialize(to_json(record));
  EXPECT_NE(text.find("\"precision\""), std::string::npos);
  const JobRecord back = record_from_json(json::parse(text));
  EXPECT_EQ(back.spec.precision, perfsim::Precision::kMixed);
  EXPECT_EQ(back.key(), record.key());
  // fp64 records stay byte-stable: no precision field is emitted.
  const JobRecord fp64 = sample_record();
  EXPECT_EQ(json::serialize(to_json(fp64)).find("\"precision\""),
            std::string::npos);
}

TEST(RecordTest, CgPrecondAndHaloTrafficRoundTripThroughJson) {
  JobRecord record = sample_record();
  record.spec.algorithm = perfsim::Algorithm::kCg;
  record.spec.precond = solvers::CgPrecond::kJacobi;
  for (RepetitionRecord& rep : record.repetitions) {
    rep.cg_iters = 42;
    rep.nnz = 1234;
    rep.halo_messages = 168;
    rep.halo_bytes = 56448;
  }
  const std::string text = json::serialize(to_json(record));
  EXPECT_NE(text.find("\"precond\""), std::string::npos);
  EXPECT_NE(text.find("\"halo_msgs\""), std::string::npos);
  EXPECT_NE(text.find("\"halo_bytes\""), std::string::npos);
  const JobRecord back = record_from_json(json::parse(text));
  EXPECT_EQ(back.spec.precond, solvers::CgPrecond::kJacobi);
  EXPECT_EQ(back.key(), record.key());
  ASSERT_EQ(back.repetitions.size(), 2u);
  EXPECT_EQ(back.repetitions[0].halo_messages, 168u);
  EXPECT_EQ(back.repetitions[0].halo_bytes, 56448u);

  // Dense records stay byte-stable: none of the cg fields are emitted.
  const std::string dense = json::serialize(to_json(sample_record()));
  EXPECT_EQ(dense.find("\"precond\""), std::string::npos);
  EXPECT_EQ(dense.find("\"halo_msgs\""), std::string::npos);
  EXPECT_EQ(dense.find("\"halo_bytes\""), std::string::npos);
}

TEST(RecordTest, RejectsKeyMismatch) {
  json::Value value = to_json(sample_record());
  value.set("key", json::Value("0000000000000000"));
  EXPECT_THROW(record_from_json(value), Error);
}

// --- result store -----------------------------------------------------------

TEST(StoreTest, PutLookupAndReplay) {
  const std::string dir = scratch_dir("store_replay");
  const JobRecord record = sample_record();
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains(record.key()));
    store.put(record);
    EXPECT_TRUE(store.contains(record.key()));
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_FALSE(reopened.recovered_torn_tail());
  const JobRecord back = reopened.lookup(record.key());
  EXPECT_EQ(back.repetitions[0].duration_s, record.repetitions[0].duration_s);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "records" /
                         (record.key() + ".json")));
}

TEST(StoreTest, RecoversTornFinalLine) {
  const std::string dir = scratch_dir("store_torn");
  JobRecord first = sample_record();
  JobRecord second = sample_record();
  second.spec.seed = 2;
  {
    ResultStore store(dir);
    store.put(first);
    store.put(second);
  }
  // Simulate a crash mid-append: chop the tail of the last journal line.
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  const std::string text = read_file(journal.string());
  std::ofstream out(journal, std::ios::binary | std::ios::trunc);
  out << text.substr(0, text.size() - 25);
  out.close();

  ResultStore recovered(dir);
  EXPECT_TRUE(recovered.recovered_torn_tail());
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered.contains(first.key()));
  EXPECT_FALSE(recovered.contains(second.key()));
  // The torn job can be re-put and survives the next replay.
  recovered.put(second);
  ResultStore again(dir);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_FALSE(again.recovered_torn_tail());
}

TEST(StoreTest, TornTailRecoveryUnderConcurrentWriters) {
  // The serve daemon's restart path in miniature: a store that just
  // recovered a torn journal tail is immediately hammered by concurrent
  // writers (engine workers) while a reader replays lookups. Recovery,
  // appends and reads must compose into a consistent journal: a fresh
  // replay sees every completed put exactly once, no duplicates, no stale
  // rows.
  const std::string dir = scratch_dir("store_torn_concurrent");
  JobRecord first = sample_record();
  JobRecord torn = sample_record();
  torn.spec.seed = 999;
  {
    ResultStore store(dir);
    store.put(first);
    store.put(torn);
  }
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  const std::string text = read_file(journal.string());
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() - 25);
  }

  ResultStore store(dir);
  ASSERT_TRUE(store.recovered_torn_tail());
  ASSERT_EQ(store.size(), 1u);

  constexpr int kPerWriter = 40;
  const auto writer = [&](std::uint64_t base) {
    for (int i = 0; i < kPerWriter; ++i) {
      JobRecord record = sample_record();
      record.spec.seed = base + static_cast<std::uint64_t>(i);
      store.put(record);
    }
  };
  std::atomic<bool> stop_reading{false};
  std::thread reader([&] {
    // Concurrent reads must never see a half-written record.
    while (!stop_reading.load()) {
      if (store.contains(first.key())) {
        const JobRecord back = store.lookup(first.key());
        EXPECT_EQ(back.key(), first.key());
      }
    }
  });
  std::thread w1(writer, 1000);
  std::thread w2(writer, 2000);
  w1.join();
  w2.join();
  stop_reading = true;
  reader.join();

  // One survivor + both writers' records; the torn key was never re-put.
  EXPECT_EQ(store.size(), 1u + 2u * kPerWriter);

  ResultStore replayed(dir);
  EXPECT_FALSE(replayed.recovered_torn_tail());
  EXPECT_EQ(replayed.size(), 1u + 2u * kPerWriter);
  EXPECT_EQ(replayed.stats().duplicate_keys, 0u);
  EXPECT_EQ(replayed.stats().skipped_stale, 0u);
  EXPECT_FALSE(replayed.contains(torn.key()));
  for (std::uint64_t base : {1000ull, 2000ull}) {
    for (int i = 0; i < kPerWriter; ++i) {
      JobRecord probe = sample_record();
      probe.spec.seed = base + static_cast<std::uint64_t>(i);
      EXPECT_TRUE(replayed.contains(probe.spec.key()));
    }
  }
}

TEST(StoreTest, MidFileCorruptionThrows) {
  const std::string dir = scratch_dir("store_corrupt");
  JobRecord first = sample_record();
  JobRecord second = sample_record();
  second.spec.seed = 2;
  {
    ResultStore store(dir);
    store.put(first);
    store.put(second);
  }
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  std::string text = read_file(journal.string());
  text[0] = 'x';  // first line is no longer JSON; the last stays intact
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << text;
  EXPECT_THROW(ResultStore{dir}, IoError);
}

TEST(StoreTest, StaleKeysAreSkippedNotFatal) {
  const std::string dir = scratch_dir("store_stale");
  { ResultStore{dir}.put(sample_record()); }
  const fs::path journal = fs::path(dir) / "journal.jsonl";
  std::string text = read_file(journal.string());
  // Rewrite the stored key: the record now looks like an older format
  // version whose hash no longer matches.
  const std::string key = sample_record().key();
  text.replace(text.find(key), key.size(), "deadbeefdeadbeef");
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << text;
  ResultStore store(dir);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.skipped_stale(), 1u);
}

// --- queue ------------------------------------------------------------------

TEST(QueueTest, ExecutesThenServesFromCache) {
  const std::string dir = scratch_dir("queue_cache");
  const std::vector<JobSpec> jobs = tiny_manifest().expand();
  ResultStore store(dir);
  QueueOptions options;
  const QueueOutcome fresh = run_queue(jobs, store, options);
  EXPECT_EQ(fresh.executed, jobs.size());
  EXPECT_EQ(fresh.cached, 0u);
  EXPECT_TRUE(fresh.complete());
  const QueueOutcome resumed = run_queue(jobs, store, options);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.cached, jobs.size());
}

TEST(QueueTest, MaxJobsStopsDeterministically) {
  const std::string dir = scratch_dir("queue_maxjobs");
  const std::vector<JobSpec> jobs = tiny_manifest().expand();
  ResultStore store(dir);
  QueueOptions options;
  options.max_jobs = 2;
  const QueueOutcome first = run_queue(jobs, store, options);
  EXPECT_EQ(first.executed, 2u);
  EXPECT_EQ(first.stopped, 2u);
  EXPECT_FALSE(first.complete());
  // Resume with the same budget: the cached prefix doesn't consume it.
  const QueueOutcome second = run_queue(jobs, store, options);
  EXPECT_EQ(second.executed, 2u);
  EXPECT_EQ(second.cached, 2u);
  EXPECT_EQ(second.stopped, 0u);
  EXPECT_TRUE(second.complete());
}

TEST(QueueTest, RetriesAfterInjectedFault) {
  const std::string dir = scratch_dir("queue_retry");
  std::vector<JobSpec> jobs = tiny_manifest().expand();
  jobs.resize(1);
  ResultStore store(dir);
  QueueOptions options;
  options.retries = 1;
  int calls = 0;
  options.job_hook = [&](const JobSpec&) {
    if (++calls == 1) throw Error("injected fault");
  };
  const QueueOutcome outcome = run_queue(jobs, store, options);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(outcome.executed, 1u);
  EXPECT_TRUE(outcome.failures.empty());
}

TEST(QueueTest, CapturesPermanentFailures) {
  const std::string dir = scratch_dir("queue_fail");
  std::vector<JobSpec> jobs = tiny_manifest().expand();
  jobs.resize(2);
  ResultStore store(dir);
  QueueOptions options;
  options.retries = 1;
  options.job_hook = [&](const JobSpec& spec) {
    if (spec.n == 96) throw Error("injected permanent fault");
  };
  const QueueOutcome outcome = run_queue(jobs, store, options);
  EXPECT_EQ(outcome.executed, 1u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].spec.n, 96u);
  EXPECT_EQ(outcome.failures[0].attempts, 2);
  EXPECT_NE(outcome.failures[0].error.find("injected"), std::string::npos);
  // The failed job is absent from the store; the good one persisted.
  EXPECT_EQ(store.size(), 1u);
}

TEST(QueueTest, TimeoutDiscardsOverBudgetJobs) {
  const std::string dir = scratch_dir("queue_timeout");
  std::vector<JobSpec> jobs = tiny_manifest().expand();
  jobs.resize(1);
  ResultStore store(dir);
  QueueOptions options;
  options.timeout_s = 1e-12;  // everything is over budget
  const QueueOutcome outcome = run_queue(jobs, store, options);
  EXPECT_EQ(outcome.executed, 0u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_NE(outcome.failures[0].error.find("time budget"),
            std::string::npos);
  EXPECT_EQ(store.size(), 0u);
}

// --- runner -----------------------------------------------------------------

TEST(RunnerTest, NumericTierRejectsJacobi) {
  JobSpec spec;
  spec.algorithm = perfsim::Algorithm::kJacobi;
  EXPECT_THROW(execute_job(spec), Error);
}

TEST(RunnerTest, ReplayTierProducesPaperScaleRecord) {
  JobSpec spec;
  spec.tier = Tier::kReplay;
  spec.machine = "marconi";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = 8640;
  spec.ranks = 144;
  spec.nb = 64;
  spec.repetitions = 3;
  const JobRecord record = execute_job(spec);
  ASSERT_EQ(record.repetitions.size(), 3u);
  EXPECT_GT(record.repetitions[0].duration_s, 0.0);
  EXPECT_GT(record.repetitions[0].total_j(), 0.0);
  EXPECT_EQ(record.repetitions[0].residual, 0.0);
  // Replay repetitions are analytic: identical by construction.
  EXPECT_EQ(record.repetitions[0].duration_s,
            record.repetitions[2].duration_s);
}

TEST(RunnerTest, ReplayTierPricesMixedPrecision) {
  JobSpec spec;
  spec.tier = Tier::kReplay;
  spec.machine = "marconi";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = 8640;
  spec.ranks = 144;
  spec.nb = 64;
  spec.precision = perfsim::Precision::kMixed;
  const JobRecord mixed = execute_job(spec);
  spec.precision = perfsim::Precision::kFp64;
  const JobRecord fp64 = execute_job(spec);
  ASSERT_EQ(mixed.repetitions.size(), 1u);
  ASSERT_EQ(fp64.repetitions.size(), 1u);
  // fp32 factorization dominates: faster and cheaper than the fp64 run
  // even after paying for the refinement sweeps.
  EXPECT_LT(mixed.repetitions[0].duration_s, fp64.repetitions[0].duration_s);
  EXPECT_LT(mixed.repetitions[0].total_j(), fp64.repetitions[0].total_j());
  // Replay of a non-scalapack mixed job is still a contract violation.
  spec.algorithm = perfsim::Algorithm::kIme;
  spec.precision = perfsim::Precision::kMixed;
  EXPECT_THROW(execute_job(spec), Error);
}

TEST(RunnerTest, MixedPrecisionJobRunsGeppMixed) {
  JobSpec spec;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kScalapack;
  spec.n = 96;
  spec.ranks = 4;
  spec.precision = perfsim::Precision::kMixed;
  const JobRecord record = execute_job(spec);
  ASSERT_EQ(record.repetitions.size(), 1u);
  EXPECT_GT(record.repetitions[0].duration_s, 0.0);
  // Refinement drives the defect to fp64-grade accuracy (campaign guard
  // allows 1e-9; a well-conditioned system lands far below that).
  EXPECT_LT(record.repetitions[0].residual, 1e-11);
  EXPECT_GT(record.repetitions[0].residual, 0.0);
}

TEST(RunnerTest, CgRecordResidualIsPinned) {
  // The residual check streams the reference system in row blocks (three
  // here, the last partial) instead of materializing it. Its bits are those
  // the full-matrix check recorded, under the default CG path and kernel.
  JobSpec spec;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kCg;
  spec.matrix = sparse::SparseKind::kRandom;
  spec.n = 10000;
  spec.ranks = 4;
  spec.seed = 3;
  const JobRecord record = execute_job(spec);
  ASSERT_EQ(record.repetitions.size(), 1u);
  EXPECT_EQ(record.repetitions[0].cg_iters, 37);
  EXPECT_EQ(record.repetitions[0].residual, 0x1.d1380fdb3e479p-51);
}

TEST(RunnerTest, MixedPrecisionRejectsNonGeppAlgorithms) {
  JobSpec spec;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kIme;
  spec.n = 96;
  spec.ranks = 4;
  spec.precision = perfsim::Precision::kMixed;
  EXPECT_THROW(execute_job(spec), Error);
}

TEST(RunnerTest, PowerCapStretchesDurationAndClampsPower) {
  JobSpec spec;
  spec.machine = "mini:8x4";
  spec.n = 512;
  spec.ranks = 16;
  const JobRecord uncapped = execute_job(spec);
  spec.power_cap_w = 30.0;  // well below the ~60 W/package full-load draw
  const JobRecord capped = execute_job(spec);
  const RepetitionRecord& u = uncapped.repetitions[0];
  const RepetitionRecord& c = capped.repetitions[0];
  EXPECT_GT(c.duration_s, u.duration_s);
  EXPECT_LT(c.total_j() / c.duration_s, u.total_j() / u.duration_s);
}

// --- campaign-level determinism --------------------------------------------

TEST(CampaignTest, ReportsAreByteIdenticalAcrossInterruptAndResume) {
  const CampaignManifest manifest = tiny_manifest();

  CampaignOptions fresh_options;
  fresh_options.store_dir = scratch_dir("campaign_fresh");
  const CampaignResult fresh = run_campaign(manifest, fresh_options);
  EXPECT_EQ(fresh.outcome.executed, 4u);
  EXPECT_EQ(fresh.missing, 0u);

  CampaignOptions interrupted_options;
  interrupted_options.store_dir = scratch_dir("campaign_resumed");
  interrupted_options.max_jobs = 2;
  const CampaignResult interrupted =
      run_campaign(manifest, interrupted_options);
  EXPECT_EQ(interrupted.outcome.executed, 2u);
  EXPECT_EQ(interrupted.outcome.stopped, 2u);
  EXPECT_EQ(interrupted.missing, 2u);

  interrupted_options.max_jobs = static_cast<std::size_t>(-1);
  const CampaignResult resumed = run_campaign(manifest, interrupted_options);
  EXPECT_EQ(resumed.outcome.executed, 2u);
  EXPECT_EQ(resumed.outcome.cached, 2u);
  EXPECT_EQ(resumed.missing, 0u);

  const std::string fresh_csv = read_file(fresh.csv_path);
  EXPECT_FALSE(fresh_csv.empty());
  EXPECT_EQ(fresh_csv, read_file(resumed.csv_path));
  EXPECT_EQ(read_file(fresh.markdown_path), read_file(resumed.markdown_path));
}

TEST(CampaignTest, ReportsAreByteIdenticalAcrossWorkerCounts) {
  const CampaignManifest manifest = tiny_manifest();

  CampaignOptions serial;
  serial.store_dir = scratch_dir("campaign_w1");
  serial.workers = 1;
  const CampaignResult one = run_campaign(manifest, serial);

  CampaignOptions pooled;
  pooled.store_dir = scratch_dir("campaign_w4");
  pooled.workers = 4;
  const CampaignResult four = run_campaign(manifest, pooled);

  EXPECT_EQ(one.outcome.executed, 4u);
  EXPECT_EQ(four.outcome.executed, 4u);
  const std::string csv = read_file(one.csv_path);
  EXPECT_FALSE(csv.empty());
  EXPECT_EQ(csv, read_file(four.csv_path));
}

TEST(CampaignTest, PrecisionColumnAppearsOnlyWithMixedJobs) {
  // fp64-only reports keep the pre-mixed header byte-for-byte; a grid with
  // mixed points gains the precision column.
  CampaignManifest manifest = tiny_manifest();
  CampaignOptions fp64_options;
  fp64_options.store_dir = scratch_dir("campaign_fp64_only");
  const CampaignResult fp64 = run_campaign(manifest, fp64_options);
  const std::string fp64_csv = read_file(fp64.csv_path);
  EXPECT_EQ(fp64_csv.find("precision"), std::string::npos);

  manifest.algorithms = {perfsim::Algorithm::kScalapack};
  manifest.precisions = {perfsim::Precision::kFp64,
                         perfsim::Precision::kMixed};
  CampaignOptions mixed_options;
  mixed_options.store_dir = scratch_dir("campaign_mixed");
  const CampaignResult mixed = run_campaign(manifest, mixed_options);
  EXPECT_EQ(mixed.outcome.executed, 4u);
  EXPECT_TRUE(mixed.outcome.failures.empty());
  const std::string mixed_csv = read_file(mixed.csv_path);
  EXPECT_NE(mixed_csv.find("precision"), std::string::npos);
  EXPECT_NE(mixed_csv.find("mixed"), std::string::npos);
  const std::string mixed_md = read_file(mixed.markdown_path);
  EXPECT_NE(mixed_md.find("| precision |"), std::string::npos);
}

}  // namespace
}  // namespace plin::batch
