// Tests for the batch campaign orchestrator: manifest parsing and grid
// expansion, content-addressed job keys, the crash-safe result store
// (journal replay, torn-tail recovery, corruption detection), the worker
// queue (caching, retries, timeouts, deterministic interruption) and the
// byte-identical report contract across interrupts and worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
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
#include "hwmodel/placement.hpp"
#include "solvers/gepp/mixed.hpp"
#include "solvers/gepp/pdgesv.hpp"
#include "solvers/ime/imep.hpp"
#include "support/error.hpp"
#include "xmpi/runtime.hpp"

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
const char* const kTinyManifest = R"(
campaign tiny
tier     numeric
machine  mini:8x4
reps     2
grid n     96 128
grid ranks 4
)";

CampaignManifest tiny_manifest() {
  return parse_manifest(std::string(kTinyManifest) +
                        "grid algorithm ime scalapack\n");
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
  EXPECT_EQ(m.values("tier").front().tier, Tier::kReplay);
  EXPECT_EQ(m.values("machine").front().machine, "marconi");
  EXPECT_EQ(m.values("reps").front().repetitions, 3);
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

/// The InvalidArgument text parse_manifest throws for `text`.
std::string manifest_error(const std::string& text) {
  try {
    parse_manifest(text);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "manifest parsed: " << text;
  return {};
}

TEST(ManifestTest, EmptyOrOversizedGridNamesWhy) {
  // An empty grid names, per algorithm, the axis value it does not accept.
  EXPECT_EQ(manifest_error("grid algorithm ime scalapack\niterations 50\n"),
            "manifest: the grid expands to no job: ime does not accept "
            "iterations 50, scalapack does not accept iterations 50");
  EXPECT_EQ(manifest_error("grid algorithm ime\ngrid precision mixed\n"),
            "manifest: the grid expands to no job: ime does not accept "
            "precision mixed");
  EXPECT_EQ(manifest_error("grid n 1 2 3 4 5 6 7 8 9 10\n"
                           "grid seed 1 2 3 4 5 6 7 8 9 10\n"
                           "grid nb 1 2 3 4 5 6 7 8 9 10\n"
                           "grid ranks 1 2 3 4 5 6 7 8 9 10\n"
                           "grid reps 1 2 3 4 5 6 7 8 9 10 11\n"),
            "manifest: the grid expands to more than 100000 jobs");
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

TEST(ManifestTest, ExpansionKeysArePinned) {
  // The CI smoke grid (manifests/ci_smoke.plc): every skip rule and both
  // append-only key suffixes, in expansion order.
  const CampaignManifest m = parse_manifest(R"(
machine   mini:16x4
reps      2
grid algorithm ime scalapack cg
grid n         256 384
grid ranks     8 4
grid layout    full half2
grid nb        32
grid seed      1
grid precision fp64 mixed
grid matrix    stencil5 banded
grid precond   none jacobi
)");
  std::string keys;
  for (const JobSpec& spec : m.expand()) keys += spec.key();
  EXPECT_EQ(m.job_count(), 56u);
  EXPECT_EQ(keys.size(), 56u * 16u);
  EXPECT_EQ(fnv1a64(keys), 0xc6de70995611053eull);
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

TEST(SpecTest, EveryAxisRoundTripsTokenJsonAndGridLine) {
  // One non-default token per axis: a new axis adds its sample here.
  const std::map<std::string, std::string> samples = {
      {"tier", "replay"},      {"machine", "mini:8x4"},
      {"algorithm", "cg"},     {"n", "96"},
      {"ranks", "8"},          {"layout", "half2"},
      {"nb", "16"},            {"seed", "7"},
      {"reps", "3"},           {"iterations", "50"},
      {"power_cap_w", "37.5"}, {"precision", "mixed"},
      {"matrix", "banded"},    {"precond", "jacobi"},
      {"tolerance", "1e-08"}};
  ASSERT_EQ(samples.size(), axes().size());
  for (const Axis& axis : axes()) {
    SCOPED_TRACE(axis.name);
    const auto sample = samples.find(axis.name);
    ASSERT_NE(sample, samples.end());
    // A job whose algorithm accepts a non-default value of this axis.
    JobSpec base;
    for (const perfsim::Algorithm a :
         {perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack,
          perfsim::Algorithm::kCg}) {
      if ((axis.varies & monitor::only(a)) != 0) {
        base.algorithm = a;
        break;
      }
    }
    JobSpec spec = base;
    axis.codec.parse(spec, sample->second);
    EXPECT_FALSE(axis.codec.same(spec, base));
    EXPECT_NE(spec.key(), base.key());

    JobSpec reparsed = base;
    axis.codec.parse(reparsed, axis.codec.print(spec));
    EXPECT_TRUE(axis.codec.same(reparsed, spec));

    const CampaignManifest m = parse_manifest(
        std::string("grid algorithm ") + algorithm_token(base.algorithm) +
        "\ngrid " + axis.name + " " + axis.codec.print(base) + " " +
        sample->second + "\n");
    const std::vector<JobSpec> jobs = m.expand();
    if (axis.varies == 0) {
      // Key-only: the codec and the grid refuse the non-default value.
      EXPECT_THROW(spec_from_json(spec_to_json(spec)), InvalidArgument);
      ASSERT_EQ(jobs.size(), 1u);
      EXPECT_EQ(m.job_count(), 1u);
      EXPECT_EQ(jobs[0].key(), base.key());
      continue;
    }

    const JobSpec decoded = spec_from_json(spec_to_json(spec));
    EXPECT_TRUE(axis.codec.same(decoded, spec));
    EXPECT_EQ(decoded.key(), spec.key());
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(m.job_count(), 2u);
    EXPECT_EQ(jobs[0].key(), base.key());
    EXPECT_EQ(jobs[1].key(), spec.key());
  }
}

TEST(SpecTest, IterationsIsKeyOnly) {
  // No solver reads `iterations`, but every journaled key carries it, so
  // its key text stays while every non-default value is refused.
  const Axis* axis = find_axis("iterations");
  ASSERT_NE(axis, nullptr);
  EXPECT_EQ(axis->flag, nullptr);
  for (const perfsim::Algorithm a :
       {perfsim::Algorithm::kIme, perfsim::Algorithm::kScalapack,
        perfsim::Algorithm::kCg}) {
    JobSpec spec;
    spec.algorithm = a;
    EXPECT_NE(spec.canonical().find("|iterations=100|"), std::string::npos);
    EXPECT_NO_THROW(validate(spec));
    spec.iterations = 50;
    try {
      validate(spec);
      ADD_FAILURE() << "iterations 50 accepted for " << algorithm_token(a);
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("iterations 50"),
                std::string::npos);
    }
  }
  // A grid whose every point carries the value expands to nothing.
  EXPECT_THROW(parse_manifest("grid algorithm ime scalapack cg\n"
                              "iterations 50\n"),
               Error);
}

TEST(SpecTest, JacobiIsNotAnAlgorithm) {
  // Dense Jacobi is not an algorithm: its token fails wherever a job is
  // written, on either tier, and the error lists the valid ones.
  JobSpec spec;
  try {
    find_axis("algorithm")->codec.parse(spec, "jacobi");
    ADD_FAILURE() << "jacobi parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("use ime | scalapack | cg"),
              std::string::npos);
  }
  for (const char* tier : {"numeric", "replay"}) {
    EXPECT_THROW(spec_from_json(json::parse(
                     std::string(R"({"algorithm":"jacobi","tier":")") +
                     tier + "\"}")),
                 InvalidArgument)
        << tier;
  }
  EXPECT_THROW(parse_manifest("grid algorithm ime jacobi\n"),
               InvalidArgument);
}

TEST(SpecTest, MachineNamesResolve) {
  EXPECT_GT(machine_from_name("marconi").total_nodes, 0);
  EXPECT_GT(machine_from_name("epyc").total_nodes, 0);
  EXPECT_EQ(machine_from_name("mini:8x4").total_nodes, 8);
  EXPECT_THROW(machine_from_name("mini:0x4"), InvalidArgument);
  EXPECT_THROW(machine_from_name("cray"), InvalidArgument);
}

/// One spec per axis rule the key has to honour: the dense default, a mixed
/// scalapack job, a power cap, and the cg matrix/precond suffixes.
std::vector<JobSpec> pinned_specs() {
  std::vector<JobSpec> specs(6);
  specs[1].algorithm = perfsim::Algorithm::kScalapack;
  specs[1].precision = perfsim::Precision::kMixed;
  specs[1].n = 1024;
  specs[1].ranks = 16;
  specs[2].machine = "mini:8x4";
  specs[2].power_cap_w = 37.5;
  specs[3].algorithm = perfsim::Algorithm::kCg;
  specs[3].n = 4096;
  specs[4].algorithm = perfsim::Algorithm::kCg;
  specs[4].n = 4096;
  specs[4].ranks = 8;
  specs[4].matrix = sparse::SparseKind::kBanded;
  specs[4].precond = solvers::CgPrecond::kJacobi;
  specs[5].algorithm = perfsim::Algorithm::kCg;
  specs[5].matrix = sparse::SparseKind::kBlockDiag;
  specs[5].seed = 9;
  return specs;
}

TEST(SpecTest, CanonicalStringsAndKeysArePinned) {
  // Journaled records are found by these keys: any change here orphans
  // every existing store.
  const std::vector<JobSpec> specs = pinned_specs();
  const std::pair<const char*, const char*> expected[] = {
      {"plin-batch-v1|tier=numeric|machine=mini:16x4|algorithm=ime|n=256|"
       "ranks=4|layout=full|nb=32|seed=1|reps=1|iterations=100|cap_w=0",
       "1f088c41f54099d8"},
      {"plin-batch-v1|tier=numeric|machine=mini:16x4|algorithm=scalapack|"
       "n=1024|ranks=16|layout=full|nb=32|seed=1|reps=1|iterations=100|"
       "cap_w=0|precision=mixed",
       "7c10539582bca591"},
      {"plin-batch-v1|tier=numeric|machine=mini:8x4|algorithm=ime|n=256|"
       "ranks=4|layout=full|nb=32|seed=1|reps=1|iterations=100|cap_w=37.5",
       "48b86bfcead81018"},
      {"plin-batch-v1|tier=numeric|machine=mini:16x4|algorithm=cg|n=4096|"
       "ranks=4|layout=full|nb=32|seed=1|reps=1|iterations=100|cap_w=0|"
       "matrix=stencil5",
       "d883a4b24117be42"},
      {"plin-batch-v1|tier=numeric|machine=mini:16x4|algorithm=cg|n=4096|"
       "ranks=8|layout=full|nb=32|seed=1|reps=1|iterations=100|cap_w=0|"
       "matrix=banded|precond=jacobi",
       "c1c5e9273475932f"},
      {"plin-batch-v1|tier=numeric|machine=mini:16x4|algorithm=cg|n=256|"
       "ranks=4|layout=full|nb=32|seed=9|reps=1|iterations=100|cap_w=0|"
       "matrix=blockdiag",
       "34a2db318a2127e7"},
  };
  ASSERT_EQ(specs.size(), std::size(expected));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].canonical(), expected[i].first) << "spec " << i;
    EXPECT_EQ(specs[i].key(), expected[i].second) << "spec " << i;
  }
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

TEST(RecordTest, RejectsOutOfRangeNumbersAndStoreSkipsThem) {
  // Journal numbers are range-checked like served specs: a negative,
  // fractional or zero-where-positive value is an InvalidArgument, and the
  // store skips such a line as stale instead of casting it.
  const std::string good = json::serialize(to_json(sample_record()));
  const std::pair<const char*, const char*> edits[] = {
      {"\"n\":96", "\"n\":-5"},
      {"\"n\":96", "\"n\":2.5"},
      {"\"nb\":32", "\"nb\":0"},
      {"\"ranks\":4", "\"ranks\":1e12"}};
  const std::string dir = scratch_dir("record_range");
  {
    std::filesystem::create_directories(dir);
    std::ofstream journal(fs::path(dir) / "journal.jsonl");
    for (const auto& [from, to] : edits) {
      std::string line = good;
      ASSERT_NE(line.find(from), std::string::npos) << from;
      line.replace(line.find(from), std::string(from).size(), to);
      EXPECT_THROW(record_from_json(json::parse(line)), InvalidArgument)
          << to;
      journal << line << "\n";
    }
  }
  const ResultStore store(dir);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.skipped_stale(), std::size(edits));
}

TEST(RecordTest, RejectsKeyMismatch) {
  json::Value value = to_json(sample_record());
  value.set("key", json::Value("0000000000000000"));
  EXPECT_THROW(record_from_json(value), Error);
}

/// Repetition with distinct energies per field; cg counters when cg_iters>0.
RepetitionRecord pinned_rep(double duration_s, int cg_iters, std::size_t nnz) {
  RepetitionRecord rep;
  rep.duration_s = duration_s;
  rep.pkg_j[0] = 1.5 * duration_s * 1000;
  rep.pkg_j[1] = 1.25 * duration_s * 1000;
  rep.dram_j[0] = 0.125;
  rep.dram_j[1] = 0.0625;
  rep.residual = 3.0e-17 * (1 + cg_iters);
  rep.host_s = 0.25;
  rep.cg_iters = cg_iters;
  rep.nnz = nnz;
  if (cg_iters > 0) {
    rep.halo_messages = 168;
    rep.halo_bytes = 56448;
  }
  return rep;
}

/// Dense fp64, mixed scalapack, cg stencil5 and cg banded+jacobi records.
std::vector<JobRecord> pinned_records() {
  const std::vector<JobSpec> specs = pinned_specs();
  std::vector<JobRecord> records(4);
  records[0].spec = specs[0];
  records[0].repetitions = {pinned_rep(0.00123, 0, 0),
                            pinned_rep(0.00125, 0, 0)};
  records[1].spec = specs[1];
  records[1].repetitions = {pinned_rep(0.0421, 0, 0)};
  records[2].spec = specs[3];
  records[2].repetitions = {pinned_rep(0.0005, 61, 20224),
                            pinned_rep(0.0005, 61, 20224)};
  records[3].spec = specs[4];
  records[3].repetitions = {pinned_rep(0.0004, 42, 69184)};
  return records;
}

TEST(RecordTest, JournalLineIsPinned) {
  const std::string line =
      R"({"key":"c1c5e9273475932f","spec":{"tier":"numeric",)"
      R"("machine":"mini:16x4","algorithm":"cg","n":4096,"ranks":8,)"
      R"("layout":"full","nb":32,"seed":1,"reps":1,"iterations":100,)"
      R"("power_cap_w":0,"matrix":"banded","precond":"jacobi"},)"
      R"("reps":[{"duration_s":0.00040000000000000002,)"
      R"("pkg0_j":0.60000000000000009,"pkg1_j":0.5,"dram0_j":0.125,)"
      R"("dram1_j":0.0625,"residual":1.2900000000000001e-15,"host_s":0.25,)"
      R"("cg_iters":42,"nnz":69184,"halo_msgs":168,"halo_bytes":56448}]})";
  const JobRecord record = pinned_records()[3];
  EXPECT_EQ(json::serialize(to_json(record)), line);
  EXPECT_EQ(json::serialize(to_json(record_from_json(json::parse(line)))),
            line);
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

TEST(StoreTest, JournaledJacobiRecordIsSkippedAsStale) {
  // A store written while dense Jacobi existed still opens: its jacobi
  // record no longer decodes and counts as a stale cache miss, and the
  // records around it are served as before.
  const std::string dir = scratch_dir("store_jacobi");
  std::filesystem::create_directories(dir);
  std::ofstream(fs::path(dir) / "journal.jsonl")
      << R"({"key":"fab238030fb8dac4","spec":{"tier":"replay",)"
         R"("machine":"marconi","algorithm":"jacobi","n":8640,"ranks":144,)"
         R"("layout":"full","nb":32,"seed":1,"reps":1,"iterations":50,)"
         R"("power_cap_w":0},"reps":[{"duration_s":0.020682535272727277,)"
         R"("pkg0_j":6.8480558120727286,"pkg1_j":6.8480558120727286,)"
         R"("dram0_j":1.6915892640000001,"dram1_j":1.6915892640000001,)"
         R"("residual":0,"host_s":4.2077999999999999e-05}]})"
      << "\n"
      << json::serialize(to_json(sample_record())) << "\n";
  const ResultStore store(dir);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.skipped_stale(), 1u);
  EXPECT_EQ(json::serialize(to_json(store.lookup(sample_record().key()))),
            json::serialize(to_json(sample_record())));
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

  // Two workers racing for the budget still admit the first two uncached
  // specs in manifest order: with jobs[1] cached, that is jobs 0 and 2.
  for (int rep = 0; rep < 10; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    ResultStore racing(scratch_dir("queue_maxjobs_workers"));
    (void)run_queue(std::span<const JobSpec>(&jobs[1], 1), racing, {});
    QueueOptions two_workers;
    two_workers.workers = 2;
    two_workers.max_jobs = 2;
    const QueueOutcome outcome = run_queue(jobs, racing, two_workers);
    EXPECT_EQ(outcome.executed, 2u);
    EXPECT_EQ(outcome.cached, 1u);
    EXPECT_EQ(outcome.stopped, 1u);
    std::set<std::string> stored;
    for (const JobRecord& record : racing.all_records()) {
      stored.insert(record.key());
    }
    EXPECT_EQ(stored, (std::set<std::string>{jobs[0].key(), jobs[1].key(),
                                             jobs[2].key()}));
  }
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

/// FNV-1a 64 over the bytes of a solution vector.
std::uint64_t x_digest(const std::vector<double>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// The solution rank 0 holds after solving `spec`'s system with the solver
/// its algorithm and precision select, as run_job calls it.
std::vector<double> dense_solution(const JobSpec& spec) {
  xmpi::RunConfig config;
  config.machine = machine_from_name(spec.machine);
  config.placement =
      hw::make_placement(spec.ranks, spec.layout, config.machine);
  std::vector<double> x;
  xmpi::Runtime::run(config, [&](xmpi::Comm& comm) {
    std::vector<double> mine;
    if (spec.algorithm == perfsim::Algorithm::kIme) {
      solvers::ImepOptions opt;
      opt.n = spec.n;
      opt.seed = spec.seed;
      mine = solvers::solve_imep(comm, opt).x;
    } else if (spec.precision == perfsim::Precision::kMixed) {
      solvers::GeppMixedOptions opt;
      opt.n = spec.n;
      opt.seed = spec.seed;
      opt.nb = spec.nb;
      mine = solvers::solve_gepp_mixed(comm, opt).x;
    } else {
      solvers::PdgesvOptions opt;
      opt.n = spec.n;
      opt.seed = spec.seed;
      opt.nb = spec.nb;
      mine = solvers::solve_pdgesv(comm, opt).x;
    }
    if (comm.rank() == 0) x = std::move(mine);
  });
  return x;
}

TEST(RunnerTest, DenseRecordResidualsArePinned) {
  // The dense residual check streams the reference system one generated
  // row at a time instead of materializing it, and the solvers generate
  // their local pieces row-wise. The residual bits are those the
  // full-matrix check recorded; the digests pin each solution.
  struct Pin {
    perfsim::Algorithm algorithm;
    perfsim::Precision precision;
    double residual;
    std::uint64_t x;
  };
  const Pin pins[] = {
      {perfsim::Algorithm::kScalapack, perfsim::Precision::kFp64,
       0x1.c1f3feccf8877p-59, 0xada410c9c798e686ULL},
      {perfsim::Algorithm::kScalapack, perfsim::Precision::kMixed,
       0x1.473d166686346p-61, 0x2545c00d9c5ed045ULL},
      {perfsim::Algorithm::kIme, perfsim::Precision::kFp64,
       0x1.990c5c0027c08p-58, 0x5023389f766a8b2fULL},
  };
  for (const Pin& pin : pins) {
    JobSpec spec;
    spec.machine = "mini:8x4";
    spec.algorithm = pin.algorithm;
    spec.precision = pin.precision;
    spec.n = 256;
    spec.ranks = 4;
    spec.seed = 5;
    SCOPED_TRACE(algorithm_token(spec.algorithm) +
                 std::string(pin.precision == perfsim::Precision::kMixed
                                 ? "/mixed"
                                 : ""));
    const JobRecord record = execute_job(spec);
    ASSERT_EQ(record.repetitions.size(), 1u);
    EXPECT_EQ(record.repetitions[0].residual, pin.residual);
    EXPECT_EQ(x_digest(dense_solution(spec)), pin.x);
  }
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

// --- reports ----------------------------------------------------------------

TEST(ReportTest, WriterBytesArePinned) {
  // Every conditional column at once: precision (mixed), matrix (cg) and
  // precond (cg+jacobi), with the cg result columns after the statistics.
  const std::vector<JobRecord> records = pinned_records();
  std::ostringstream csv;
  write_report_csv(csv, records);
  EXPECT_EQ(csv.str(), R"pin(tier,machine,algorithm,precision,matrix,precond,n,ranks,layout,nb,seed,power_cap_w,reps,duration_mean_s,duration_stddev_s,duration_ci95_s,duration_min_s,duration_max_s,total_mean_j,total_stddev_j,total_ci95_j,pkg_mean_j,dram_mean_j,power_mean_w,residual_worst,cg_iters,nnz,halo_msgs,halo_bytes
numeric,mini:16x4,ime,fp64,-,-,256,4,full,32,1,0.0,1,0.001240000,0.000014142,0.000019600,0.001230000,0.001250000,3.597500,0.038891,0.053900,3.410000,0.187500,2901.210,0.000000000000000030,0,0,0,0
numeric,mini:16x4,scalapack,mixed,-,-,1024,16,full,32,1,0.0,1,0.042100000,0.000000000,0.000000000,0.042100000,0.042100000,115.962500,0.000000,0.000000,115.775000,0.187500,2754.454,0.000000000000000030,0,0,0,0
numeric,mini:16x4,cg,fp64,stencil5,none,4096,4,full,32,1,0.0,1,0.000500000,0.000000000,0.000000000,0.000500000,0.000500000,1.562500,0.000000,0.000000,1.375000,0.187500,3125.000,0.000000000000001860,61,20224,168,56448
numeric,mini:16x4,cg,fp64,banded,jacobi,4096,8,full,32,1,0.0,1,0.000400000,0.000000000,0.000000000,0.000400000,0.000400000,1.287500,0.000000,0.000000,1.100000,0.187500,3218.750,0.000000000000001290,42,69184,168,56448
)pin");
  std::ostringstream md;
  write_report_markdown(md, records);
  EXPECT_EQ(md.str(), R"pin(| tier | algorithm | precision | matrix | precond | n | ranks | layout | reps | duration | energy | power | worst residual | iters | nnz | halo msgs | halo bytes |
|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|
| numeric | ime | fp64 | - | - | 256 | 4 | full | 1 | 1.24 ms ± 19.6 us | 3.60 J ± 53.9 mJ | 2.90 kW | 0.03e-15 | - | - | - | - |
| numeric | scalapack | mixed | - | - | 1024 | 16 | full | 1 | 42.1 ms | 116 J | 2.75 kW | 0.03e-15 | - | - | - | - |
| numeric | cg | fp64 | stencil5 | none | 4096 | 4 | full | 1 | 500 us | 1.56 J | 3.12 kW | 1.86e-15 | 61 | 20224 | 168 | 56448 |
| numeric | cg | fp64 | banded | jacobi | 4096 | 8 | full | 1 | 400 us | 1.29 J | 3.22 kW | 1.29e-15 | 42 | 69184 | 168 | 56448 |
)pin");
  std::ostringstream table;
  print_report_table(table, records);
  EXPECT_EQ(table.str(), R"pin(+---------+-----------+-----------+----------+---------+------+-------+--------+------+----------+---------+------------+-------------+--------+---------+----------+-------+-------+-----------+------------+
| tier    | algorithm | precision | matrix   | precond | n    | ranks | layout | reps | duration | ci95    | PKG energy | DRAM energy | total  | power   | residual | iters | nnz   | halo msgs | halo bytes |
+---------+-----------+-----------+----------+---------+------+-------+--------+------+----------+---------+------------+-------------+--------+---------+----------+-------+-------+-----------+------------+
| numeric | ime       | fp64      | -        | -       |  256 |     4 | full   |    1 |  1.24 ms | 19.6 us |     3.41 J |      188 mJ | 3.60 J | 2.90 kW | 0.03e-15 | -     | -     | -         | -          |
| numeric | scalapack | mixed     | -        | -       | 1024 |    16 | full   |    1 |  42.1 ms | -       |      116 J |      188 mJ |  116 J | 2.75 kW | 0.03e-15 | -     | -     | -         | -          |
| numeric | cg        | fp64      | stencil5 | none    | 4096 |     4 | full   |    1 |   500 us | -       |     1.38 J |      188 mJ | 1.56 J | 3.12 kW | 1.86e-15 |    61 | 20224 |       168 |      56448 |
| numeric | cg        | fp64      | banded   | jacobi  | 4096 |     8 | full   |    1 |   400 us | -       |     1.10 J |      188 mJ | 1.29 J | 3.22 kW | 1.29e-15 |    42 | 69184 |       168 |      56448 |
+---------+-----------+-----------+----------+---------+------+-------+--------+------+----------+---------+------------+-------------+--------+---------+----------+-------+-------+-----------+------------+
)pin");
}

TEST(ReportTest, ConditionalColumnsAppearOnlyWhenKeyed) {
  const std::vector<JobRecord> all = pinned_records();
  const auto header = [](std::vector<JobRecord> records) {
    std::ostringstream csv;
    write_report_csv(csv, records);
    return csv.str().substr(0, csv.str().find('\n'));
  };
  const std::string stats =
      "duration_mean_s,duration_stddev_s,duration_ci95_s,duration_min_s,"
      "duration_max_s,total_mean_j,total_stddev_j,total_ci95_j,pkg_mean_j,"
      "dram_mean_j,power_mean_w,residual_worst";
  EXPECT_EQ(header({all[0]}),
            "tier,machine,algorithm,n,ranks,layout,nb,seed,power_cap_w,reps," +
                stats);
  EXPECT_EQ(header({all[0], all[2]}),
            "tier,machine,algorithm,matrix,n,ranks,layout,nb,seed,"
            "power_cap_w,reps," +
                stats + ",cg_iters,nnz,halo_msgs,halo_bytes");
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
  CampaignOptions fp64_options;
  fp64_options.store_dir = scratch_dir("campaign_fp64_only");
  const CampaignResult fp64 = run_campaign(tiny_manifest(), fp64_options);
  const std::string fp64_csv = read_file(fp64.csv_path);
  EXPECT_EQ(fp64_csv.find("precision"), std::string::npos);

  const CampaignManifest manifest =
      parse_manifest(std::string(kTinyManifest) +
                     "grid algorithm scalapack\ngrid precision fp64 mixed\n");
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
