// The four workloads of bench_e2e. Campaign workloads (dense, sparse,
// ranks) drive batch::execute_job + batch::ResultStore from one
// closed-loop caller, the way `powerlin_run --campaign` does; serve drives
// an in-process serve::Server over AF_UNIX from four closed-loop clients.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>

#include "batch/report.hpp"
#include "batch/runner.hpp"
#include "batch/store.hpp"
#include "e2e.hpp"
#include "hwmodel/placement.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"

namespace plin::e2e {
namespace {

namespace fs = std::filesystem;
using perfsim::Algorithm;

constexpr std::size_t kMaxErrors = 8;

/// Resets VmHWM to the current resident set; false where the kernel does
/// not allow it.
bool reset_vm_hwm() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

batch::JobSpec numeric(const char* machine, Algorithm algorithm,
                       std::size_t n, int ranks) {
  batch::JobSpec spec;
  spec.machine = machine;
  spec.algorithm = algorithm;
  spec.n = n;
  spec.ranks = ranks;
  spec.nb = 32;
  spec.repetitions = 1;
  return spec;
}

batch::JobSpec cg(const char* machine, sparse::SparseKind kind, std::size_t n,
                  int ranks,
                  solvers::CgPrecond precond = solvers::CgPrecond::kNone) {
  batch::JobSpec spec = numeric(machine, Algorithm::kCg, n, ranks);
  spec.matrix = kind;
  spec.precond = precond;
  return spec;
}

// Compute-bound regime: GEMM/TRSM/AXPY do most of the work, and xmpi
// carries few, large messages.
std::vector<batch::JobSpec> dense_templates() {
  batch::JobSpec mixed = numeric("mini:16x4", Algorithm::kScalapack, 1536, 16);
  mixed.precision = perfsim::Precision::kMixed;
  return {numeric("mini:16x4", Algorithm::kScalapack, 1536, 16), mixed,
          numeric("mini:16x4", Algorithm::kIme, 1536, 16),
          numeric("mini:16x4", Algorithm::kScalapack, 1024, 16),
          numeric("mini:16x4", Algorithm::kIme, 1024, 16)};
}

// Memory-bound regime: sparse generation, SpMV and the CG halo /
// fused-allreduce loop dominate; linalg is idle.
std::vector<batch::JobSpec> sparse_templates() {
  using sparse::SparseKind;
  return {cg("mini:16x4", SparseKind::kStencil5, 1u << 18, 16),
          cg("mini:16x4", SparseKind::kBanded, 1u << 18, 16),
          cg("mini:16x4", SparseKind::kStencil27, 1u << 17, 16),
          cg("mini:16x4", SparseKind::kRandom, 1u << 17, 16,
             solvers::CgPrecond::kJacobi)};
}

// The paper's rank counts with tiny per-rank work: spawn, scheduler,
// mailbox and collectives dominate — the opposite of dense.
std::vector<batch::JobSpec> ranks_templates() {
  using sparse::SparseKind;
  return {numeric("mini:72x4", Algorithm::kScalapack, 576, 576),
          numeric("mini:72x4", Algorithm::kScalapack, 576, 144),
          numeric("mini:72x4", Algorithm::kIme, 288, 144),
          cg("mini:72x4", SparseKind::kStencil5, 16384, 144),
          cg("mini:72x4", SparseKind::kStencil5, 36864, 576)};
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::vector<batch::JobSpec> templates, std::size_t jobs,
                   std::uint64_t seed, std::string work_dir)
      : templates_(std::move(templates)),
        jobs_(jobs),
        seed_(seed),
        work_dir_(std::move(work_dir)) {}

  double setup(SpanLog* log) override {
    log_ = log;
    store_.reset();
    const std::string dir = work_dir_ + "/store" + std::to_string(setups_++);
    fs::remove_all(dir);
    const Stopwatch wall;
    store_ = std::make_unique<batch::ResultStore>(dir);
    // One warm-up job on a seed the timed phase never uses.
    batch::JobSpec warm = templates_.front();
    warm.seed = job_seed(seed_, kWarmupStream);
    const batch::JobRecord record = batch::execute_job(warm);
    verify_record(record, warm);
    store_->put(record);
    return wall.elapsed_s();
  }

  PhaseResult run(double seconds, std::size_t min_jobs) override {
    PhaseResult result;
    result.fixed = min_jobs;
    std::vector<batch::JobSpec> ran;
    const Scope root(log_, "bench.workload");
    const Stopwatch wall;
    for (std::size_t i = 0;; ++i) {
      if (i % templates_.size() == 0 && i >= min_jobs &&
          wall.elapsed_s() >= seconds) {
        break;
      }
      batch::JobSpec spec = templates_[i % templates_.size()];
      spec.seed = job_seed(seed_, i);
      ran.push_back(spec);
      const std::string job = std::to_string(i);
      const Scope span(log_, "bench.job", root.id(), job);
      ++result.attempted;
      const Stopwatch latency;
      try {
        batch::JobRecord record;
        {
          const Scope execute(log_, "batch.execute_job", span.id(), job);
          record = batch::execute_job(spec);
        }
        verify_record(record, spec);
        {
          const Scope put(log_, "batch.put", span.id(), job);
          store_->put(record);
        }
        result.outputs[spec.key()] = virtual_outputs(record);
        result.executed.push_back(virtual_outputs(record));
      } catch (const std::exception& e) {
        result.fail(spec.describe() + ": " + e.what());
      }
      result.latency_s.push_back(latency.elapsed_s());
    }
    {
      // The reports run_campaign rewrites after every invocation.
      const Scope report(log_, "batch.report", root.id());
      std::size_t missing = 0;
      const std::vector<batch::JobRecord> records =
          batch::collect_records(ran, *store_, &missing);
      std::ofstream csv(store_->dir() + "/report.csv", std::ios::trunc);
      batch::write_report_csv(csv, records);
      std::ofstream markdown(store_->dir() + "/report.md", std::ios::trunc);
      batch::write_report_markdown(markdown, records);
      if (missing != result.failed || !csv || !markdown) {
        result.fail("report: records missing from the store or unwritable");
      }
    }
    result.wall_s = wall.elapsed_s();
    return result;
  }

  // The process VmHWM of a campaign swings from run to run by a whole
  // matrix (62-87 MB on dense) with how much freed memory glibc's
  // per-thread arenas happen to keep as the xmpi workers interleave. So
  // after the timed phase each template runs once more, with the free
  // memory handed back and VmHWM reset first, and the largest job's peak
  // counts. Where VmHWM cannot be reset, the process VmHWM stands.
  double peak_rss_mb(PhaseResult& checks) override {
    double peak = vm_hwm_mb();
    if (!reset_vm_hwm()) return peak;
    peak = 0.0;
    for (std::size_t t = 0; t < templates_.size(); ++t) {
      batch::JobSpec spec = templates_[t];
      spec.seed = job_seed(seed_, kMemoryStream + t);
      ++checks.attempted;
      ::malloc_trim(0);
      reset_vm_hwm();
      try {
        verify_record(batch::execute_job(spec), spec);
      } catch (const std::exception& e) {
        checks.fail(spec.describe() + ": " + e.what());
      }
      peak = std::max(peak, vm_hwm_mb());
    }
    return peak;
  }

  // At least 100 jobs per untraced run, so p90 has ten samples beyond it.
  std::size_t min_jobs() const override { return jobs_; }
  std::vector<batch::JobSpec> templates() const override { return templates_; }
  double tail_quantile() const override { return 0.90; }
  int xmpi_workers() const override { return 4; }

 private:
  static constexpr std::uint64_t kWarmupStream = 0xFFFFFFFFu;
  static constexpr std::uint64_t kMemoryStream = 0xFFFF0000u;

  std::vector<batch::JobSpec> templates_;
  std::size_t jobs_;
  std::uint64_t seed_;
  std::string work_dir_;
  SpanLog* log_ = nullptr;
  int setups_ = 0;
  std::unique_ptr<batch::ResultStore> store_;
};

// ---- serve -------------------------------------------------------------------

// The serve traffic is an assumption, not a measured trace: no request log
// of a powerlin daemon exists to derive it from. The hit share, the hot-set
// size, the journal length and the tenant weights below are chosen, so the
// benchmark runs the mix on both sides of the cache-hit share (serve and
// serve_cold) rather than resting on one guessed ratio.
constexpr int kClients = 4;
constexpr int kEngineWorkers = 2;
constexpr std::size_t kHotSpecs = 16;
constexpr std::size_t kJournalRecords = 20000;
constexpr std::uint64_t kJournalFirstSeed = 1000000000;
// Cold request seeds: base + client * kClientSeedStride + request index,
// unique within a run and disjoint from the journal's seeds.
constexpr std::uint64_t kClientSeedStride = 10000000;
constexpr std::uint64_t kReplaySeedOffset = 500000000;
const char* const kTenants[2] = {"interactive", "batch"};
constexpr double kTenantWeights[2] = {2.0, 1.0};

enum class RequestKind { kHot, kCold, kReplay };

/// Request shares in percent: hot (pre-warmed, served from the store), cold
/// numeric (execute + journal write); the rest are cold replay-tier
/// paper-grid points (perfsim).
struct ServeMix {
  int hot_pct;
  int cold_pct;
};
constexpr ServeMix kHotMix{75, 15};   // "serve": mostly cache hits
constexpr ServeMix kColdMix{25, 45};  // "serve_cold": mostly executions

batch::JobRecord response_record(const json::Value& response,
                                 const batch::JobSpec& spec,
                                 const char* want_status) {
  const json::Value* ok = response.find("ok");
  PLIN_CHECK_MSG(ok != nullptr && ok->as_bool(),
                 "request refused: " + json::serialize(response));
  PLIN_CHECK_MSG(response.at("status").as_string() == want_status,
                 "status " + response.at("status").as_string() +
                     ", expected " + want_status);
  PLIN_CHECK_MSG(response.at("key").as_string() == spec.key(),
                 "response for another key");
  batch::JobRecord record = batch::record_from_json(response.at("record"));
  verify_record(record, spec);
  return record;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ServeMix mix, std::uint64_t seed, std::string work_dir)
      : mix_(mix), seed_(seed), work_dir_(std::move(work_dir)) {
    // Expected replay outputs (seed-independent) and the pre-seeded journal
    // every set-up replays.
    for (const batch::JobSpec& spec : paper_grid(1)) {
      grid_.push_back(batch::execute_job(spec));
    }
    fs::create_directories(work_dir_);
    write_replay_journal(journal_path(), kJournalRecords, kJournalFirstSeed,
                         grid_);
    for (std::size_t i = 0; i < kHotSpecs; ++i) {
      hot_.push_back(cold_template(i));
      hot_.back().seed = job_seed(seed_, 100 + i);
    }
    cold_base_ = 100000000 + job_seed(seed_, 7) % 100000000;
  }

  double setup(SpanLog* log) override {
    log_ = log;
    instance_.reset();
    const std::string dir = work_dir_ + "/serve" + std::to_string(setups_++);
    fs::remove_all(dir);
    fs::create_directories(dir + "/store");
    fs::copy_file(journal_path(), dir + "/store/journal.jsonl");

    const Stopwatch wall;
    serve::EngineOptions options;
    options.workers = kEngineWorkers;
    if (log_ != nullptr) {
      // Traced set-ups time each execution on the worker, under the
      // request span that caused it.
      options.executor = [this](const batch::JobSpec& spec) {
        const std::string key = spec.key();
        const Scope span(log_, "batch.execute_job", request_span(key), key);
        return batch::execute_job(spec);
      };
    }
    instance_ =
        std::make_unique<ServeInstance>(dir, std::move(options), kClients);
    PLIN_CHECK_MSG(instance_->store.size() == kJournalRecords,
                   "journal replay lost records");
    for (int t = 0; t < 2; ++t) {
      serve::TenantConfig tenant;
      tenant.weight = kTenantWeights[t];
      instance_->engine.configure_tenant(kTenants[t], tenant);
    }
    hot_outputs_.clear();
    for (const batch::JobSpec& spec : hot_) {
      const json::Value response =
          instance_->clients[0]->submit(spec, kTenants[0], /*wait=*/true);
      hot_outputs_[spec.key()] =
          virtual_outputs(response_record(response, spec, "done"));
    }
    return wall.elapsed_s();
  }

  PhaseResult run(double seconds, std::size_t /*min_jobs*/) override {
    std::vector<PhaseResult> per_client(kClients);
    const Stopwatch wall;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(c, seconds, wall, per_client[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();

    PhaseResult result;
    result.wall_s = wall.elapsed_s();
    for (PhaseResult& mine : per_client) {
      result.attempted += mine.attempted;
      result.failed += mine.failed;
      for (std::string& e : mine.errors) {
        if (result.errors.size() < kMaxErrors) result.errors.push_back(e);
      }
      result.latency_s.insert(result.latency_s.end(), mine.latency_s.begin(),
                              mine.latency_s.end());
      result.outputs.merge(mine.outputs);
    }
    return result;
  }

  std::size_t min_jobs() const override { return 0; }
  // Steady to about 1% from run to run: the daemon's memory is the store.
  double peak_rss_mb(PhaseResult& /*checks*/) override { return vm_hwm_mb(); }
  std::vector<batch::JobSpec> templates() const override {
    return {cold_template(0), cold_template(1)};
  }
  // Thousands of requests per run: p99 has tens of samples beyond it.
  double tail_quantile() const override { return 0.99; }
  int xmpi_workers() const override { return 1; }

 private:
  static batch::JobSpec cold_template(std::size_t i) {
    return numeric("mini:16x4",
                   i % 2 == 0 ? Algorithm::kScalapack : Algorithm::kIme, 256,
                   8);
  }

  std::string journal_path() const { return work_dir_ + "/journal.jsonl"; }

  SpanLog::Id request_span(const std::string& key) {
    std::lock_guard<std::mutex> lock(spans_mutex_);
    const auto it = request_spans_.find(key);
    return it == request_spans_.end() ? SpanLog::kNoParent : it->second;
  }

  // Draws each request from the mix. Each client is its own root span: one
  // client's requests are sequential, so their self times add up to the
  // client's loop.
  void client_loop(int c, double seconds, const Stopwatch& wall,
                   PhaseResult& mine) {
    const Scope root(log_, "bench.workload", SpanLog::kNoParent,
                     "client" + std::to_string(c));
    std::mt19937_64 rng(job_seed(seed_, 1000 + static_cast<std::uint64_t>(c)));
    serve::Client& client = *instance_->clients[static_cast<std::size_t>(c)];
    const std::uint64_t client_base =
        cold_base_ + static_cast<std::uint64_t>(c) * kClientSeedStride;
    for (std::uint64_t r = 0; wall.elapsed_s() < seconds; ++r) {
      const int draw = static_cast<int>(rng() % 100);
      const RequestKind kind =
          draw < mix_.hot_pct                    ? RequestKind::kHot
          : draw < mix_.hot_pct + mix_.cold_pct ? RequestKind::kCold
                                                 : RequestKind::kReplay;
      batch::JobSpec spec;
      std::size_t grid_index = 0;
      if (kind == RequestKind::kHot) {
        spec = hot_[rng() % kHotSpecs];
      } else if (kind == RequestKind::kCold) {
        spec = cold_template(r);
        spec.seed = client_base + r;
      } else {
        grid_index = rng() % grid_.size();
        spec = grid_[grid_index].spec;
        spec.seed = client_base + kReplaySeedOffset + r;
      }
      const std::string key = spec.key();
      const Scope span(log_, "serve.request", root.id(), key);
      if (log_ != nullptr && kind != RequestKind::kHot) {
        std::lock_guard<std::mutex> lock(spans_mutex_);
        request_spans_[key] = span.id();
      }
      ++mine.attempted;
      try {
        const Stopwatch latency;
        const json::Value response =
            client.submit(spec, kTenants[c % 2], /*wait=*/true);
        mine.latency_s.push_back(latency.elapsed_s());
        const batch::JobRecord record = response_record(
            response, spec, kind == RequestKind::kHot ? "cached" : "done");
        const VirtualOutputs out = virtual_outputs(record);
        if (kind == RequestKind::kHot) {
          PLIN_CHECK_MSG(out == hot_outputs_.at(key),
                         "cache hit returned other outputs than the job");
        } else {
          PLIN_CHECK_MSG(kind == RequestKind::kCold ||
                             out == virtual_outputs(grid_[grid_index]),
                         "replay differs from the direct prediction");
          mine.outputs[key] = out;
        }
      } catch (const std::exception& e) {
        mine.fail(spec.describe() + ": " + e.what());
      }
    }
  }

  ServeMix mix_;
  std::uint64_t seed_;
  std::string work_dir_;
  SpanLog* log_ = nullptr;
  int setups_ = 0;
  std::vector<batch::JobRecord> grid_;
  std::vector<batch::JobSpec> hot_;
  std::map<std::string, VirtualOutputs> hot_outputs_;
  std::uint64_t cold_base_ = 0;
  std::mutex spans_mutex_;
  std::map<std::string, SpanLog::Id> request_spans_;
  std::unique_ptr<ServeInstance> instance_;
};

}  // namespace

ServeInstance::ServeInstance(const std::string& dir,
                             serve::EngineOptions options, int clients)
    : store(dir + "/store"),
      engine(store, std::move(options)),
      server(engine, serve::ServerOptions{dir + "/s.sock"}) {
  // The server listens from construction, so clients connect into the
  // backlog before the IO loop starts accepting.
  for (int c = 0; c < clients; ++c) {
    this->clients.push_back(
        std::make_unique<serve::Client>(server.socket_path()));
  }
  io = std::thread([this] { server.serve(); });
}

ServeInstance::~ServeInstance() {
  clients.clear();
  server.stop();
  io.join();
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1e3;  // kB -> MB
    }
  }
  return 0.0;
}

void PhaseResult::fail(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

VirtualOutputs virtual_outputs(const batch::JobRecord& record) {
  PLIN_CHECK_MSG(!record.repetitions.empty(), "record has no repetitions");
  const batch::RepetitionRecord& rep = record.repetitions.front();
  return VirtualOutputs{rep.duration_s, rep.total_j(), rep.residual};
}

void verify_record(const batch::JobRecord& record,
                   const batch::JobSpec& spec) {
  PLIN_CHECK_MSG(record.key() == spec.key(), "record is for another spec");
  PLIN_CHECK_MSG(record.repetitions.size() == 1, "expected one repetition");
  const batch::RepetitionRecord& rep = record.repetitions.front();
  PLIN_CHECK_MSG(std::isfinite(rep.duration_s) && rep.duration_s > 0.0 &&
                     std::isfinite(rep.total_j()) && rep.total_j() > 0.0,
                 "no simulated time or energy");
  if (spec.tier == batch::Tier::kNumeric) {
    const double bound =
        spec.precision == perfsim::Precision::kMixed ? 1e-9 : 1e-10;
    PLIN_CHECK_MSG(rep.residual >= 0.0 && rep.residual < bound,
                   "residual above the solver's bound");
  }
  if (spec.algorithm == Algorithm::kCg) {
    PLIN_CHECK_MSG(rep.cg_iters > 0, "cg reported no iterations");
  }
}

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer over (seed, index).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return 1 + z % 0x7FFFFFFEull;
}

std::vector<batch::JobSpec> paper_grid(std::uint64_t seed) {
  std::vector<batch::JobSpec> grid;
  for (Algorithm algorithm : {Algorithm::kIme, Algorithm::kScalapack}) {
    for (int n : hw::kPaperMatrixSizes) {
      for (int ranks : hw::kPaperRankCounts) {
        batch::JobSpec spec;
        spec.tier = batch::Tier::kReplay;
        spec.machine = "marconi";
        spec.algorithm = algorithm;
        spec.n = static_cast<std::size_t>(n);
        spec.ranks = ranks;
        spec.nb = 64;
        spec.seed = seed;
        spec.repetitions = 1;
        grid.push_back(spec);
      }
    }
  }
  return grid;
}

void write_replay_journal(const std::string& path, std::size_t count,
                          std::uint64_t first_seed,
                          const std::vector<batch::JobRecord>& predictions) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (std::size_t k = 0; k < count; ++k) {
    batch::JobRecord record = predictions[k % predictions.size()];
    record.spec.seed = first_seed + k;
    out << json::serialize(batch::to_json(record)) << '\n';
  }
  if (!out) throw IoError("bench_e2e: cannot write journal " + path);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "dense") {
    return std::make_unique<CampaignWorkload>(dense_templates(), 120, seed,
                                              work_dir);
  }
  if (name == "sparse") {
    return std::make_unique<CampaignWorkload>(sparse_templates(), 100, seed,
                                              work_dir);
  }
  if (name == "ranks") {
    return std::make_unique<CampaignWorkload>(ranks_templates(), 100, seed,
                                              work_dir);
  }
  if (name == "serve") {
    return std::make_unique<ServeWorkload>(kHotMix, seed, work_dir);
  }
  if (name == "serve_cold") {
    return std::make_unique<ServeWorkload>(kColdMix, seed, work_dir);
  }
  throw InvalidArgument("unknown workload '" + name +
                        "' (dense | sparse | ranks | serve | serve_cold)");
}

}  // namespace plin::e2e
