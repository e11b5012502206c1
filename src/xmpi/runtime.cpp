#include "xmpi/runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "prof/export.hpp"
#include "prof/recorder.hpp"
#include "support/error.hpp"
#include "xmpi/scheduler.hpp"

namespace plin::xmpi {

double EnergyReport::total_pkg_j() const {
  double total = 0.0;
  for (const NodeEnergy& node : nodes) {
    for (const PackageEnergy& pkg : node.packages) total += pkg.pkg_j;
  }
  return total;
}

double EnergyReport::total_dram_j() const {
  double total = 0.0;
  for (const NodeEnergy& node : nodes) {
    for (const PackageEnergy& pkg : node.packages) total += pkg.dram_j;
  }
  return total;
}

namespace {

/// Truthy environment flag: set and neither empty nor "0".
bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' &&
         std::string_view(value) != "0";
}

/// Reads a non-negative integer environment variable; `fallback` when
/// unset or unparsable.
std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') return fallback;
  return static_cast<std::size_t>(parsed);
}

constexpr const char* kDeadlockMessage =
    "xmpi deadlock detected: every unfinished rank is blocked in a receive "
    "or collective with no message in flight";

/// Parker of the 1-rank inline path. The only rank is also the only
/// possible sender, so a receive that has to block can never match.
class InlineParker final : public Mailbox::Parker {
 public:
  void park() override { throw Error(kDeadlockMessage); }
  void wake() override {}
};

}  // namespace

RunResult Runtime::run(const RunConfig& config, const RankMain& rank_main) {
  PLIN_CHECK_MSG(static_cast<bool>(rank_main), "rank_main must be callable");
  World world(config.machine, config.placement);
  world.configure_transport(config.transport);

  // Tracing is requested explicitly, implied by an output path, or forced
  // from the environment (PLIN_TRACE=1). set_tracing additionally requires
  // prof::kCompiledIn; world.tracing() reports what actually happened.
  const bool want_trace = config.trace || !config.chrome_trace_path.empty() ||
                          !config.trace_dir.empty() || env_flag("PLIN_TRACE");
  const std::size_t ring_spans =
      config.trace_ring_spans != 0
          ? config.trace_ring_spans
          : env_size_t("PLIN_TRACE_SPANS", prof::kDefaultRingSpans);
  world.set_tracing(want_trace, ring_spans);

  RunResult result;

  if (world.size() == 1) {
    // 1-rank fast path: no pool, no fibers, no thread spawn — rank_main
    // runs inline on the calling thread (whose previous hardware binding,
    // if any, is restored afterwards). Exceptions propagate directly.
    static InlineParker parker;
    RankState& state = world.rank_state(0);
    state.mailbox.set_parker(&parker);
    trace::ScopedHardwareBinding binding(&state.hw_context);
    Comm comm(&world, 0);
    rank_main(comm);
    result.host_executor = "inline";
    result.host_workers = 1;
  } else {
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto rank_body = [&world, &rank_main, &error_mutex,
                            &first_error](int rank) {
      try {
        Comm comm(&world, rank);
        rank_main(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        world.abort();
      }
    };

    FiberScheduler::Options options;
    options.workers = config.workers != 0
                          ? config.workers
                          : env_size_t("PLIN_XMPI_WORKERS", 0);
    options.stack_bytes = config.fiber_stack_bytes != 0
                              ? config.fiber_stack_bytes
                              : env_size_t("PLIN_XMPI_STACK_KB", 0) * 1024;
    options.on_deadlock = [&world] { world.abort(); };

    std::vector<FiberScheduler::Task> tasks;
    tasks.reserve(static_cast<std::size_t>(world.size()));
    for (int rank = 0; rank < world.size(); ++rank) {
      FiberScheduler::Task task;
      task.body = [&rank_body, rank] { rank_body(rank); };
      task.hw = &world.rank_state(rank).hw_context;
      tasks.push_back(std::move(task));
    }
    FiberScheduler scheduler(std::move(tasks), std::move(options));
    for (int rank = 0; rank < world.size(); ++rank) {
      world.rank_state(rank).mailbox.set_parker(
          scheduler.parker(static_cast<std::size_t>(rank)));
    }
    scheduler.run();
    for (int rank = 0; rank < world.size(); ++rank) {
      world.rank_state(rank).mailbox.set_parker(nullptr);
    }
    result.host_executor = "pool";
    result.host_workers = scheduler.worker_count();
    result.host_parks = scheduler.park_count();
    result.host_wakes = scheduler.wake_count();

    if (scheduler.deadlocked()) {
      // Every surviving rank was woken with Aborted, so first_error holds
      // an Aborted — replace it with the actual diagnosis.
      throw Error(kDeadlockMessage);
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  result.rank_times.reserve(static_cast<std::size_t>(world.size()));
  for (int rank = 0; rank < world.size(); ++rank) {
    const double t = world.rank_state(rank).clock.now();
    result.rank_times.push_back(t);
    result.duration_s = std::max(result.duration_s, t);
  }
  result.traffic = world.total_traffic();
  result.rank_traffic.reserve(static_cast<std::size_t>(world.size()));
  for (int rank = 0; rank < world.size(); ++rank) {
    result.rank_traffic.push_back(world.rank_state(rank).traffic);
  }
  result.transport = world.transport_stats();

  const int packages = config.machine.node.sockets;
  result.energy.nodes.resize(static_cast<std::size_t>(world.node_count()));
  for (int node = 0; node < world.node_count(); ++node) {
    trace::EnergyLedger& ledger = world.node_ledger(node);
    NodeEnergy& node_energy =
        result.energy.nodes[static_cast<std::size_t>(node)];
    node_energy.packages.resize(static_cast<std::size_t>(packages));
    for (int p = 0; p < packages; ++p) {
      PackageEnergy& pkg =
          node_energy.packages[static_cast<std::size_t>(p)];
      pkg.pkg_j = ledger.package_energy_j(p, result.duration_s);
      pkg.dram_j = ledger.dram_energy_j(p, result.duration_s);
      result.compute_s += ledger.activity_seconds(
          p, hw::ActivityKind::kCompute, result.duration_s);
      result.membound_s += ledger.activity_seconds(
          p, hw::ActivityKind::kMemBound, result.duration_s);
      result.commactive_s += ledger.activity_seconds(
          p, hw::ActivityKind::kCommActive, result.duration_s);
      result.commwait_s += ledger.activity_seconds(
          p, hw::ActivityKind::kCommWait, result.duration_s);
    }
  }

  // Extract the span trace while World is still alive, reusing the exact
  // RunResult energy values so attribution reconciles bit-identically.
  if (world.tracing()) {
    auto trace = std::make_shared<prof::TraceData>();
    trace->duration_s = result.duration_s;
    trace->ring_capacity = ring_spans;
    trace->power = world.power().spec();
    trace->ranks.reserve(static_cast<std::size_t>(world.size()));
    for (int rank = 0; rank < world.size(); ++rank) {
      RankState& state = world.rank_state(rank);
      const hw::RankLocation& loc = world.layout().location_of(rank);
      trace->ranks.push_back(state.prof->take(rank, loc.node, loc.socket,
                                              loc.core, state.clock.now()));
    }
    trace->packages.reserve(
        static_cast<std::size_t>(world.node_count() * packages));
    for (int node = 0; node < world.node_count(); ++node) {
      trace::EnergyLedger& ledger = world.node_ledger(node);
      for (int p = 0; p < packages; ++p) {
        prof::PackagePower pkg;
        pkg.node = node;
        pkg.package = p;
        const PackageEnergy& energy =
            result.energy.nodes[static_cast<std::size_t>(node)]
                .packages[static_cast<std::size_t>(p)];
        pkg.pkg_j = energy.pkg_j;
        pkg.dram_j = energy.dram_j;
        pkg.dram_traffic_bytes =
            ledger.dram_traffic_bytes(p, result.duration_s);
        pkg.cap_w = ledger.package_cap(p);
        pkg.ranked_cores = world.layout().ranks_on_socket(node, p);
        if (pkg.cap_w > 0.0 && pkg.ranked_cores > 0) {
          pkg.dynamic_scale =
              world.power().cap_effect(pkg.cap_w, pkg.ranked_cores)
                  .dynamic_scale;
        }
        trace->packages.push_back(pkg);
      }
    }
    result.trace = trace;
    if (!config.chrome_trace_path.empty()) {
      prof::write_perfetto(config.chrome_trace_path, *trace);
    }
    if (!config.trace_dir.empty()) {
      prof::write_trace_bundle(config.trace_dir, *trace);
    }
  }

  // Simulated external wattmeter: sample every node's ledger on a fixed
  // virtual-time grid. Differencing cumulative energies gives the average
  // power of each window, free of RAPL's counter quantization.
  if (config.timeline_period_s > 0.0) {
    const double period = config.timeline_period_s;
    result.timeline.resize(static_cast<std::size_t>(world.node_count()));
    for (int node = 0; node < world.node_count(); ++node) {
      trace::EnergyLedger& ledger = world.node_ledger(node);
      NodeTimeline& series =
          result.timeline[static_cast<std::size_t>(node)];
      series.node = node;
      double prev_pkg[2] = {0.0, 0.0};
      double prev_dram[2] = {0.0, 0.0};
      for (double t = period; t < result.duration_s + period; t += period) {
        const double clipped = std::min(t, result.duration_s);
        const double window = clipped - (t - period);
        if (window <= 0.0) break;
        TimelineSample sample;
        sample.t = clipped;
        for (int p = 0; p < packages && p < 2; ++p) {
          const double pkg = ledger.package_energy_j(p, clipped);
          const double dram = ledger.dram_energy_j(p, clipped);
          sample.pkg_w[p] = (pkg - prev_pkg[p]) / window;
          sample.dram_w[p] = (dram - prev_dram[p]) / window;
          prev_pkg[p] = pkg;
          prev_dram[p] = dram;
        }
        series.samples.push_back(sample);
      }
    }
  }
  return result;
}

}  // namespace plin::xmpi
