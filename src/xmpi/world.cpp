#include "xmpi/world.hpp"

#include <cstdlib>
#include <string_view>

#include "support/error.hpp"

namespace plin::xmpi {

namespace {

CollectiveMode env_collective_mode() {
  const char* value = std::getenv("PLIN_XMPI_COLL");
  if (value == nullptr || *value == '\0') return CollectiveMode::kTree;
  const std::string_view text(value);
  if (text == "tree") return CollectiveMode::kTree;
  if (text == "scalable") return CollectiveMode::kScalable;
  PLIN_CHECK_MSG(false, "PLIN_XMPI_COLL must be tree or scalable");
  return CollectiveMode::kTree;
}

}  // namespace

World::World(hw::MachineSpec machine, hw::Placement placement)
    : layout_(machine, placement),
      network_(machine.network),
      power_(machine.power) {
  configure_transport(TransportConfig{});
  const int packages = machine.node.sockets;
  ledgers_.reserve(static_cast<std::size_t>(layout_.nodes()));
  for (int node = 0; node < layout_.nodes(); ++node) {
    std::vector<int> cores(static_cast<std::size_t>(packages),
                           machine.node.socket.cores);
    std::vector<int> ranked(static_cast<std::size_t>(packages), 0);
    for (int socket = 0; socket < packages; ++socket) {
      ranked[static_cast<std::size_t>(socket)] =
          layout_.ranks_on_socket(node, socket);
    }
    ledgers_.push_back(std::make_unique<trace::EnergyLedger>(
        power_, std::move(cores), std::move(ranked)));
  }

  rank_count_ = layout_.ranks();
  ranks_ = std::make_unique<RankState[]>(static_cast<std::size_t>(rank_count_));
  for (int rank = 0; rank < rank_count_; ++rank) {
    RankState& state = ranks_[static_cast<std::size_t>(rank)];
    const int node = layout_.node_of(rank);
    state.hw_context.ledger = ledgers_[static_cast<std::size_t>(node)].get();
    state.hw_context.clock = &state.clock;
    state.hw_context.node = node;
  }
}

RankState& World::rank_state(int world_rank) {
  PLIN_CHECK_MSG(world_rank >= 0 && world_rank < size(),
                 "world rank out of range");
  return ranks_[static_cast<std::size_t>(world_rank)];
}

trace::EnergyLedger& World::node_ledger(int node) {
  PLIN_CHECK_MSG(node >= 0 && node < node_count(), "node out of range");
  return *ledgers_[static_cast<std::size_t>(node)];
}

std::uint64_t World::intern_context(std::uint64_t parent_context, int seq) {
  std::lock_guard<std::mutex> lock(context_mutex_);
  const auto key = std::make_pair(parent_context, seq);
  const auto it = contexts_.find(key);
  if (it != contexts_.end()) return it->second;
  const std::uint64_t id = next_context_++;
  contexts_.emplace(key, id);
  return id;
}

void World::post(int dst_world, Envelope&& envelope) {
  rank_state(dst_world).mailbox.post(std::move(envelope));
}

void World::deliver(int dst_world, Envelope&& envelope,
                    std::span<const std::byte> data) {
  const std::size_t bytes = data.size();
  if (rank_state(dst_world).mailbox.deliver(std::move(envelope), data,
                                            pool_)) {
    rendezvous_messages_.fetch_add(1, std::memory_order_relaxed);
    rendezvous_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    eager_messages_.fetch_add(1, std::memory_order_relaxed);
  }
}

void World::configure_transport(const TransportConfig& config) {
  collective_mode_ = config.collectives == CollectiveMode::kAuto
                         ? env_collective_mode()
                         : config.collectives;
}

TransportStats World::transport_stats() const {
  TransportStats stats;
  stats.pool = pool_.stats();
  stats.eager_messages = eager_messages_.load(std::memory_order_relaxed);
  stats.rendezvous_messages =
      rendezvous_messages_.load(std::memory_order_relaxed);
  stats.rendezvous_bytes = rendezvous_bytes_.load(std::memory_order_relaxed);
  return stats;
}

TrafficCounters World::total_traffic() const {
  TrafficCounters total;
  for (int r = 0; r < rank_count_; ++r) {
    const RankState& rank = ranks_[static_cast<std::size_t>(r)];
    total.data_messages += rank.traffic.data_messages;
    total.data_bytes += rank.traffic.data_bytes;
    total.control_messages += rank.traffic.control_messages;
    total.control_bytes += rank.traffic.control_bytes;
    total.recv_messages += rank.traffic.recv_messages;
    total.recv_bytes += rank.traffic.recv_bytes;
    total.halo_messages += rank.traffic.halo_messages;
    total.halo_bytes += rank.traffic.halo_bytes;
  }
  return total;
}

void World::set_tracing(bool enabled, std::size_t ring_spans) {
  tracing_ = enabled && prof::kCompiledIn;
  const std::size_t capacity =
      ring_spans != 0 ? ring_spans : prof::kDefaultRingSpans;
  for (int r = 0; r < rank_count_; ++r) {
    ranks_[static_cast<std::size_t>(r)].prof =
        tracing_ ? std::make_unique<prof::SpanRecorder>(capacity) : nullptr;
  }
}

void World::abort() noexcept {
  abort_flag_.store(true);
  for (int r = 0; r < rank_count_; ++r) {
    ranks_[static_cast<std::size_t>(r)].mailbox.interrupt();
  }
}

}  // namespace plin::xmpi
