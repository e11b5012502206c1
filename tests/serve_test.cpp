// Tests for the serve subsystem: wire protocol parsing, the engine's
// fair-share stride scheduler (dedupe, coalescing, admission control,
// retries, cooperative timeouts, drain), the crash-restart guarantee (a
// completed job is journaled before it is acknowledged, so a fresh engine
// over the same store serves it from cache), and the socket server
// end-to-end over a real AF_UNIX connection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"

namespace plin::serve {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "plin_serve_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

/// Instant replay-tier spec (milliseconds even in debug builds); seed
/// varies the key so tests control dedupe precisely.
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

/// A trivially fast fake executor (no perfsim, no xmpi) for policy tests.
batch::JobRecord fake_record(const batch::JobSpec& spec) {
  batch::JobRecord record;
  record.spec = spec;
  batch::RepetitionRecord rep;
  rep.duration_s = 1.0;
  rep.pkg_j[0] = 2.0;
  record.repetitions.assign(static_cast<std::size_t>(spec.repetitions), rep);
  return record;
}

// --- protocol ---------------------------------------------------------------

TEST(ProtocolTest, ParsesSubmitWithDefaults) {
  const Request r = parse_request(
      R"({"op":"submit","spec":{"tier":"replay","machine":"marconi",)"
      R"("algorithm":"scalapack","n":8640,"ranks":144}})");
  EXPECT_EQ(r.op, Op::kSubmit);
  EXPECT_EQ(r.tenant, "default");
  EXPECT_FALSE(r.wait);
  EXPECT_EQ(r.spec.n, 8640u);
  EXPECT_EQ(r.spec.ranks, 144);
  // Unlisted fields keep JobSpec defaults.
  EXPECT_EQ(r.spec.nb, 32u);
  EXPECT_EQ(r.spec.repetitions, 1);
}

TEST(ProtocolTest, EchoesTenantTagAndWait) {
  const Request r = parse_request(
      R"({"op":"submit","tenant":"fig5","tag":"c17","wait":true,)"
      R"("spec":{"n":96,"ranks":4}})");
  EXPECT_EQ(r.tenant, "fig5");
  EXPECT_EQ(r.tag, "c17");
  EXPECT_TRUE(r.wait);
  const json::Value response = make_response(r, true);
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("op").as_string(), "submit");
  EXPECT_EQ(response.at("tag").as_string(), "c17");
}

TEST(ProtocolTest, RejectsGarbage) {
  EXPECT_THROW(parse_request("not json"), Error);
  EXPECT_THROW(parse_request(R"({"op":"frobnicate"})"), InvalidArgument);
  EXPECT_THROW(parse_request(R"({"op":"submit","spec":{"n":0}})"), Error);
  EXPECT_THROW(
      parse_request(R"({"op":"submit","spec":{"n":96,"typo_field":1}})"),
      InvalidArgument);
  EXPECT_THROW(parse_request(R"({"op":"wait","key":"tooshort"})"), Error);
  // Spec numbers are range-checked, never cast: negative, fractional, zero
  // where a positive value is required, and too large for the field.
  for (const char* spec :
       {R"({"n":-5})", R"({"n":2.5})", R"({"nb":0})", R"({"reps":0})",
        R"({"ranks":3e9})", R"({"seed":1e20})", R"({"power_cap_w":-1})",
        R"({"tolerance":0})", R"({"precision":"mixed"})",
        R"({"matrix":"banded"})", R"({"iterations":50})",
        R"({"algorithm":"jacobi"})"}) {
    EXPECT_THROW(parse_request(std::string(R"({"op":"submit","spec":)") +
                               spec + "}"),
                 InvalidArgument)
        << spec;
  }
}

TEST(ProtocolTest, SpecRoundTripsThroughJson) {
  batch::JobSpec spec = replay_spec(7, 128);
  spec.precision = perfsim::Precision::kMixed;
  spec.repetitions = 3;
  const batch::JobSpec back = batch::spec_from_json(batch::spec_to_json(spec));
  EXPECT_EQ(back.key(), spec.key());

  batch::JobSpec cg = replay_spec(8);
  cg.algorithm = perfsim::Algorithm::kCg;
  cg.matrix = sparse::SparseKind::kBanded;
  cg.precond = solvers::CgPrecond::kJacobi;
  const batch::JobSpec cg_back =
      batch::spec_from_json(batch::spec_to_json(cg));
  EXPECT_EQ(cg_back.matrix, sparse::SparseKind::kBanded);
  EXPECT_EQ(cg_back.precond, solvers::CgPrecond::kJacobi);
  EXPECT_EQ(cg_back.key(), cg.key());
}

// --- engine: dedupe, coalescing, admission ----------------------------------

TEST(EngineTest, ExecutesStoresAndServesFromCache) {
  batch::ResultStore store(scratch_dir("engine_cache"));
  EngineOptions options;
  options.executor = fake_record;
  Engine engine(store, options);

  const batch::JobSpec spec = replay_spec(1);
  EXPECT_EQ(engine.submit("alice", spec), SubmitStatus::kQueued);
  const JobOutcome outcome = engine.wait(spec.key());
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(store.contains(spec.key()));

  // Identical resubmit: a first-class cache hit, no execution.
  EXPECT_EQ(engine.submit("bob", spec), SubmitStatus::kCached);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.tenants.at("bob").cache_hits, 1u);
}

TEST(EngineTest, CoalescesInflightDuplicates) {
  batch::ResultStore store(scratch_dir("engine_coalesce"));
  std::atomic<bool> release{false};
  std::atomic<int> executions{0};
  EngineOptions options;
  options.workers = 2;
  options.executor = [&](const batch::JobSpec& spec) {
    ++executions;
    while (!release.load()) std::this_thread::yield();
    return fake_record(spec);
  };
  Engine engine(store, options);

  const batch::JobSpec spec = replay_spec(2);
  EXPECT_EQ(engine.submit("a", spec), SubmitStatus::kQueued);
  // Wait until the worker picked it up, then pile on duplicates.
  while (executions.load() == 0) std::this_thread::yield();
  EXPECT_EQ(engine.submit("a", spec), SubmitStatus::kCoalesced);
  EXPECT_EQ(engine.submit("b", spec), SubmitStatus::kCoalesced);

  std::atomic<int> notified{0};
  engine.subscribe(spec.key(), [&](const JobOutcome& outcome) {
    EXPECT_TRUE(outcome.ok);
    ++notified;
  });
  engine.subscribe(spec.key(), [&](const JobOutcome& outcome) {
    EXPECT_TRUE(outcome.ok);
    ++notified;
  });
  release = true;
  engine.drain();
  EXPECT_EQ(executions.load(), 1);  // one execution served every submit
  EXPECT_EQ(notified.load(), 2);
  EXPECT_EQ(engine.stats().coalesced, 2u);
}

TEST(EngineTest, AdmissionControlRejectsOverflow) {
  batch::ResultStore store(scratch_dir("engine_admission"));
  std::atomic<bool> release{false};
  EngineOptions options;
  options.workers = 1;
  options.default_tenant.max_queued = 2;
  options.executor = [&](const batch::JobSpec& spec) {
    while (!release.load()) std::this_thread::yield();
    return fake_record(spec);
  };
  Engine engine(store, options);

  // One running + two queued; the next submit must bounce.
  EXPECT_EQ(engine.submit("t", replay_spec(10)), SubmitStatus::kQueued);
  SubmitStatus last = SubmitStatus::kQueued;
  int accepted = 1;
  for (std::uint64_t seed = 11; seed < 16; ++seed) {
    last = engine.submit("t", replay_spec(seed));
    if (last == SubmitStatus::kQueued) ++accepted;
  }
  EXPECT_EQ(last, SubmitStatus::kRejected);
  EXPECT_LE(accepted, 4);  // 1 dispatched (or not yet) + max_queued 2 + race
  EXPECT_GT(engine.stats().rejected, 0u);
  release = true;
}

TEST(EngineTest, FairShareFavoursHeavierTenant) {
  batch::ResultStore store(scratch_dir("engine_fairshare"));
  std::mutex order_mutex;
  std::vector<std::uint64_t> order;
  std::atomic<bool> release{false};
  EngineOptions options;
  options.workers = 1;
  options.executor = [&](const batch::JobSpec& spec) {
    while (!release.load()) std::this_thread::yield();
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(spec.seed);
    return fake_record(spec);
  };
  Engine engine(store, options);
  engine.configure_tenant("heavy", {2.0, 1024, 0});
  engine.configure_tenant("light", {1.0, 1024, 0});

  // Seeds 100+ belong to "heavy" (weight 2), 200+ to "light" (weight 1).
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(engine.submit("heavy", replay_spec(100 + i)),
              SubmitStatus::kQueued);
    EXPECT_EQ(engine.submit("light", replay_spec(200 + i)),
              SubmitStatus::kQueued);
  }
  release = true;
  engine.drain();

  ASSERT_EQ(order.size(), 12u);
  // Stride scheduling: the weight-2 tenant owns ~2/3 of any prefix (the
  // first dispatch may race ahead of the second tenant's first submit, so
  // allow one slot of slack).
  int heavy_in_first_six = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    if (order[i] < 200) ++heavy_in_first_six;
  }
  EXPECT_GE(heavy_in_first_six, 3);
  EXPECT_LE(heavy_in_first_six, 5);
  // Everyone finishes eventually: both tenants fully drained.
  EXPECT_EQ(engine.stats().tenants.at("heavy").completed, 6u);
  EXPECT_EQ(engine.stats().tenants.at("light").completed, 6u);
}

// --- engine: failures, retries, timeouts ------------------------------------

TEST(EngineTest, RetriesWithBackoffThenSucceeds) {
  batch::ResultStore store(scratch_dir("engine_retry"));
  std::atomic<int> attempts{0};
  EngineOptions options;
  options.retries = 2;
  options.executor = [&](const batch::JobSpec& spec) {
    if (++attempts < 3) throw Error("transient fault");
    return fake_record(spec);
  };
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(20);
  engine.submit("t", spec);
  const JobOutcome outcome = engine.wait(spec.key());
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST(EngineTest, ExhaustedRetriesFailTheKeyAndAllowResubmit) {
  batch::ResultStore store(scratch_dir("engine_fail"));
  std::atomic<bool> heal{false};
  EngineOptions options;
  options.retries = 1;
  options.executor = [&](const batch::JobSpec& spec) {
    if (!heal.load()) throw Error("broken dependency");
    return fake_record(spec);
  };
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(21);
  engine.submit("t", spec);
  const JobOutcome failed = engine.wait(spec.key());
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("broken dependency"), std::string::npos);
  EXPECT_EQ(engine.stats().failed, 1u);

  // The failure is not cached: a resubmit runs again and can succeed.
  heal = true;
  EXPECT_EQ(engine.submit("t", spec), SubmitStatus::kQueued);
  EXPECT_TRUE(engine.wait(spec.key()).ok);
}

TEST(EngineTest, CooperativeTimeoutDiscardsSlowJobs) {
  batch::ResultStore store(scratch_dir("engine_timeout"));
  EngineOptions options;
  options.timeout_s = 1e-9;
  options.executor = [](const batch::JobSpec& spec) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return fake_record(spec);
  };
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(22);
  engine.submit("t", spec);
  const JobOutcome outcome = engine.wait(spec.key());
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("timeout"), std::string::npos);
  EXPECT_GT(engine.stats().timeouts, 0u);
  EXPECT_FALSE(store.contains(spec.key()));  // over-budget result discarded
}

// --- engine: restart guarantee ----------------------------------------------

TEST(EngineTest, RestartServesCompletedJobsFromJournal) {
  const std::string dir = scratch_dir("engine_restart");
  const batch::JobSpec spec = replay_spec(30);
  {
    batch::ResultStore store(dir);
    EngineOptions options;
    options.executor = fake_record;
    Engine engine(store, options);
    engine.submit("t", spec);
    EXPECT_TRUE(engine.wait(spec.key()).ok);
  }  // engine + store die (the polite version of SIGKILL; the CI smoke job
     // does the impolite one)

  batch::ResultStore store(dir);
  EXPECT_EQ(store.stats().replayed, 1u);
  EXPECT_EQ(store.stats().duplicate_keys, 0u);  // journaled exactly once
  EngineOptions options;
  options.executor = [](const batch::JobSpec&) -> batch::JobRecord {
    throw Error("must not re-run a completed job");
  };
  Engine engine(store, options);
  EXPECT_EQ(engine.submit("t", spec), SubmitStatus::kCached);
  EXPECT_TRUE(engine.wait(spec.key()).ok);
}

TEST(EngineTest, DrainRejectsNewWorkAndFinishesQueued) {
  batch::ResultStore store(scratch_dir("engine_drain"));
  EngineOptions options;
  options.executor = fake_record;
  Engine engine(store, options);
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    engine.submit("t", replay_spec(seed));
  }
  engine.drain();
  EXPECT_TRUE(engine.draining());
  EXPECT_EQ(store.size(), 4u);  // every queued job finished
  EXPECT_EQ(engine.submit("t", replay_spec(99)), SubmitStatus::kRejected);
}

TEST(EngineTest, StatsJsonCarriesSchedulerTenantsAndCache) {
  batch::ResultStore store(scratch_dir("engine_statsjson"));
  EngineOptions options;
  options.executor = fake_record;
  Engine engine(store, options);
  const batch::JobSpec spec = replay_spec(50);
  engine.submit("fig5", spec);
  engine.wait(spec.key());
  engine.submit("fig5", spec);  // cache hit

  const json::Value stats = engine.stats_json();
  EXPECT_EQ(stats.at("scheduler").at("executed").as_number(), 1.0);
  EXPECT_EQ(stats.at("scheduler").at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("tenants").at("fig5").at("submitted").as_number(), 2.0);
  EXPECT_EQ(stats.at("cache").at("inserts").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("duplicate_keys").as_number(), 0.0);
  // Round-trips through the support/json layer (the serve_stats.json file).
  const json::Value reparsed = json::parse(json::serialize(stats));
  EXPECT_EQ(json::serialize(reparsed), json::serialize(stats));
}

// --- server end-to-end over AF_UNIX -----------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  void start(EngineOptions options = {}) {
    // Each test gets its own directory (the fixture name is per-test).
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = scratch_dir(std::string("e2e_") + info->name());
    store_ = std::make_unique<batch::ResultStore>(dir_);
    // Default executor: the real batch::execute_job (replay tier specs run
    // in milliseconds), making these genuinely end-to-end.
    engine_ = std::make_unique<Engine>(*store_, std::move(options));
    ServerOptions server_options;
    // Socket paths are length-limited (~107 bytes): keep it short.
    socket_path_ = dir_ + "/s.sock";
    server_options.socket_path = socket_path_;
    server_ = std::make_unique<Server>(*engine_, server_options);
    thread_ = std::thread([this] { server_->serve(); });
  }

  void TearDown() override {
    if (server_) server_->stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    engine_.reset();
    store_.reset();
  }

  std::string dir_;
  std::string socket_path_;
  std::unique_ptr<batch::ResultStore> store_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServerFixture, PingSubmitWaitStatsOverSocket) {
  start();
  Client client(socket_path_);
  EXPECT_TRUE(client.ping().at("ok").as_bool());

  const batch::JobSpec spec = replay_spec(60);
  const json::Value submitted = client.submit(spec, "fig5", /*wait=*/true,
                                              /*tag=*/"t1");
  EXPECT_TRUE(submitted.at("ok").as_bool());
  EXPECT_EQ(submitted.at("tag").as_string(), "t1");
  EXPECT_EQ(submitted.at("key").as_string(), spec.key());
  EXPECT_EQ(submitted.at("status").as_string(), "done");
  EXPECT_GT(submitted.at("record").at("reps").as_array().size(), 0u);

  // Same spec again: first-class cache hit, record included inline.
  const json::Value cached = client.submit(spec, "fig5", /*wait=*/false);
  EXPECT_EQ(cached.at("status").as_string(), "cached");
  EXPECT_GT(cached.at("record").at("reps").as_array().size(), 0u);

  // Wait on the known key from a second connection.
  Client other(socket_path_);
  const json::Value waited = other.wait_key(spec.key());
  EXPECT_TRUE(waited.at("ok").as_bool());
  EXPECT_EQ(waited.at("status").as_string(), "done");

  const json::Value stats = client.stats();
  EXPECT_EQ(stats.at("stats").at("scheduler").at("executed").as_number(),
            1.0);
  EXPECT_EQ(stats.at("stats").at("scheduler").at("cache_hits").as_number(),
            1.0);
}

TEST_F(ServerFixture, ServedCgJobKeepsMatrixAndPrecond) {
  // Client and daemon share the spec codec, so a served cg job runs the
  // family and preconditioner it was submitted with, under the client's key.
  start();
  Client client(socket_path_);
  batch::JobSpec spec;
  spec.machine = "mini:8x4";
  spec.algorithm = perfsim::Algorithm::kCg;
  spec.matrix = sparse::SparseKind::kBanded;
  spec.precond = solvers::CgPrecond::kJacobi;
  spec.n = 1024;
  const json::Value answer = client.submit(spec, "cg", /*wait=*/true);
  ASSERT_TRUE(answer.at("ok").as_bool()) << json::serialize(answer);
  EXPECT_EQ(answer.at("key").as_string(), spec.key());
  const json::Value& served = answer.at("record").at("spec");
  EXPECT_EQ(served.at("matrix").as_string(), "banded");
  EXPECT_EQ(served.at("precond").as_string(), "jacobi");
}

TEST_F(ServerFixture, MalformedLinesGetErrorsNotDisconnects) {
  start();
  Client client(socket_path_);
  json::Value bad = json::make_object();
  bad.set("op", "frobnicate");
  const json::Value response = client.request(bad);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("unknown op"),
            std::string::npos);
  // The connection survives the error.
  EXPECT_TRUE(client.ping().at("ok").as_bool());
}

TEST_F(ServerFixture, UnknownWaitKeyFailsFast) {
  start();
  Client client(socket_path_);
  const json::Value response = client.wait_key("0123456789abcdef");
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("unknown key"),
            std::string::npos);
}

TEST_F(ServerFixture, DrainFinishesInflightAndAnswersWaiters) {
  start();
  Client submitter(socket_path_);
  const batch::JobSpec spec = replay_spec(61, 128);
  const json::Value accepted =
      submitter.submit(spec, "default", /*wait=*/false);
  EXPECT_TRUE(accepted.at("ok").as_bool());

  json::Value drain_body = json::make_object();
  drain_body.set("op", "drain");
  const json::Value draining = submitter.request(drain_body);
  EXPECT_TRUE(draining.at("draining").as_bool());

  if (thread_.joinable()) thread_.join();  // serve() returns post-drain
  EXPECT_TRUE(store_->contains(spec.key()));
}

}  // namespace
}  // namespace plin::serve
