// World — the shared state of one xmpi run: topology, cost models, per-rank
// clocks and mailboxes, per-node energy ledgers, communicator-context
// allocation and traffic counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "hwmodel/layout.hpp"
#include "hwmodel/network.hpp"
#include "hwmodel/power.hpp"
#include "prof/recorder.hpp"
#include "trace/clock.hpp"
#include "trace/hardware_context.hpp"
#include "trace/ledger.hpp"
#include "xmpi/mailbox.hpp"
#include "xmpi/pool.hpp"
#include "xmpi/types.hpp"

namespace plin::xmpi {

/// Transport counters, surfaced through RunResult::transport. Host-side
/// diagnostics only — none of it feeds back into virtual time or energy.
struct TransportStats {
  PoolStats pool;
  std::uint64_t eager_messages = 0;
  std::uint64_t rendezvous_messages = 0;
  std::uint64_t rendezvous_bytes = 0;
};

/// Per-rank mutable state. Owned by World in one contiguous slab (see
/// World::ranks_), touched only by the rank's thread (mailbox is
/// internally synchronized for senders).
struct RankState {
  trace::VirtualClock clock;
  Mailbox mailbox;
  trace::HardwareContext hw_context;
  TrafficCounters traffic;  // this rank's share of send-side counters
  /// Span recorder (src/prof); allocated by World::set_tracing, null when
  /// tracing is off.
  std::unique_ptr<prof::SpanRecorder> prof;
};

class World {
 public:
  World(hw::MachineSpec machine, hw::Placement placement);

  int size() const { return layout_.ranks(); }
  const hw::ClusterLayout& layout() const { return layout_; }
  const hw::NetworkModel& network() const { return network_; }
  const hw::PowerModel& power() const { return power_; }

  RankState& rank_state(int world_rank);
  trace::EnergyLedger& node_ledger(int node);
  int node_count() const { return static_cast<int>(ledgers_.size()); }

  /// Context id for the world communicator.
  static constexpr std::uint64_t kWorldContext = 1;

  /// Deterministically allocates/returns the context id for the `seq`-th
  /// split performed on communicator `parent_context`. All members calling
  /// with the same pair receive the same id (MPI's ordering requirement).
  std::uint64_t intern_context(std::uint64_t parent_context, int seq);

  /// Delivers an envelope to `dst_world`'s mailbox.
  void post(int dst_world, Envelope&& envelope);

  /// Sender entry point of the transport: attaches `data` to `envelope`
  /// (zero-copy into the registered receive when eligible, pooled eager
  /// buffer otherwise) and delivers it to `dst_world`.
  void deliver(int dst_world, Envelope&& envelope,
               std::span<const std::byte> data);

  /// Resolves the collective mode (an explicit setting wins, then the
  /// PLIN_XMPI_COLL environment, then tree collectives). The World
  /// constructor applies the kAuto configuration; Runtime::run re-applies
  /// RunConfig::transport.
  void configure_transport(const TransportConfig& config);
  PayloadPool& payload_pool() { return pool_; }
  CollectiveMode collective_mode() const { return collective_mode_; }
  TransportStats transport_stats() const;

  /// Aggregated traffic across ranks (sum of send-side counters).
  TrafficCounters total_traffic() const;

  void abort() noexcept;
  bool aborted() const { return abort_flag_.load(); }
  const std::atomic<bool>& abort_flag() const { return abort_flag_; }

  /// Enables span tracing: allocates one prof::SpanRecorder per rank with
  /// the given ring capacity (0 → prof::kDefaultRingSpans). Disabling
  /// drops the recorders. No-op when the prof subsystem is compiled out
  /// (-DPLIN_PROF=OFF). See docs/tracing.md.
  void set_tracing(bool enabled, std::size_t ring_spans = 0);
  bool tracing() const { return tracing_; }

 private:
  hw::ClusterLayout layout_;
  hw::NetworkModel network_;
  hw::PowerModel power_;
  /// Declared before ranks_: mailboxes may still hold pooled envelopes at
  /// destruction, and their buffers return to the pool.
  PayloadPool pool_;
  CollectiveMode collective_mode_ = CollectiveMode::kTree;
  std::atomic<std::uint64_t> eager_messages_{0};
  std::atomic<std::uint64_t> rendezvous_messages_{0};
  std::atomic<std::uint64_t> rendezvous_bytes_{0};
  std::vector<std::unique_ptr<trace::EnergyLedger>> ledgers_;
  /// One contiguous slab of rank state instead of P scattered heap nodes:
  /// a RankState is a few cache lines, and at 100k ranks allocator
  /// headers, pointer indirection and fragmentation were a measurable
  /// share of the footprint (bench_scale tracks bytes/rank). A plain
  /// vector cannot hold RankState because Mailbox is neither movable nor
  /// copyable.
  std::unique_ptr<RankState[]> ranks_;
  int rank_count_ = 0;

  std::mutex context_mutex_;
  std::map<std::pair<std::uint64_t, int>, std::uint64_t> contexts_;
  std::uint64_t next_context_ = 2;

  std::atomic<bool> abort_flag_{false};
  bool tracing_ = false;
};

}  // namespace plin::xmpi
