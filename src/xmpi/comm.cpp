#include "xmpi/comm.hpp"

#include <algorithm>

namespace plin::xmpi {

Comm::Comm(World* world, int world_rank)
    : world_(world), rank_(world_rank), context_(World::kWorldContext) {
  PLIN_CHECK(world != nullptr);
  PLIN_CHECK(world_rank >= 0 && world_rank < world->size());
  // group_ stays empty: the world communicator uses the implicit identity
  // mapping. An explicit table here would be 4·P bytes per rank — 40 GB of
  // pure rank metadata at the 100k-rank campaign point.
}

Comm::Comm(World* world, std::vector<int> group, int rank,
           std::uint64_t context)
    : world_(world), group_(std::move(group)), rank_(rank),
      context_(context) {}

int Comm::world_rank_of(int comm_rank) const {
  PLIN_CHECK_MSG(comm_rank >= 0 && comm_rank < size(),
                 "comm rank out of range");
  return group_.empty() ? comm_rank : group_[static_cast<std::size_t>(comm_rank)];
}

hw::RankLocation Comm::my_location() const {
  return world_->layout().location_of(world_rank());
}

RankState& Comm::me() const { return world_->rank_state(world_rank()); }

double Comm::now() const { return me().clock.now(); }

prof::SpanRecorder* Comm::recorder() const {
  if constexpr (prof::kCompiledIn) {
    return me().prof.get();
  } else {
    return nullptr;
  }
}

void Comm::prof_phase_begin(std::string_view name) {
  if (prof::SpanRecorder* rec = recorder()) rec->begin_phase(name, now());
}

void Comm::prof_phase_end() {
  if (prof::SpanRecorder* rec = recorder()) rec->end_phase(now());
}

void Comm::prof_instant(std::string_view name) {
  if (prof::SpanRecorder* rec = recorder()) rec->instant(name, now());
}

void Comm::prof_collective_begin(const char* name) {
  if (prof::SpanRecorder* rec = recorder()) rec->begin_collective(name, now());
}

void Comm::prof_collective_end() {
  if (prof::SpanRecorder* rec = recorder()) rec->end_collective(now());
}

void Comm::log_segment(hw::ActivityKind kind, double dt, double dram_bytes) {
  PLIN_ASSERT(dt >= 0.0);
  RankState& state = me();
  const double t0 = state.clock.now();
  state.clock.advance(dt);
  // Lane = core index: unique per rank within the package, so each lane is
  // appended in this rank's program order and ledger sums stay
  // bit-identical under any host scheduling (see EnergyLedger::record).
  world_->node_ledger(my_location().node)
      .record(my_location().socket,
              trace::ActivitySegment{t0, t0 + dt, kind, dram_bytes},
              my_location().core);
  // Span mirror of the ledger segment (same t0/t1/kind/bytes), so the
  // tracer can re-derive and attribute this segment's joules exactly.
  if (prof::SpanRecorder* rec = recorder()) {
    rec->activity(kind, t0, t0 + dt, dram_bytes);
  }
}

void Comm::compute(const ComputeCost& cost) {
  PLIN_CHECK_MSG(cost.flops >= 0.0 && cost.dram_bytes >= 0.0,
                 "compute cost must be non-negative");
  PLIN_CHECK_MSG(cost.efficiency > 0.0 && cost.efficiency <= 1.0,
                 "efficiency must be in (0, 1]");
  const hw::RankLocation& loc = my_location();
  const hw::MachineSpec& machine = world_->layout().machine();

  double speed = 1.0;
  trace::EnergyLedger& ledger = world_->node_ledger(loc.node);
  const double cap = ledger.package_cap(loc.socket);
  if (cap > 0.0) {
    const int active = world_->layout().ranks_on_socket(loc.node, loc.socket);
    speed = world_->power().cap_effect(cap, active).speed_factor;
  }

  // Precision picks the core peak the flops are rated against; the fp64
  // expression is untouched so every existing charge stays bit-identical.
  const double core_peak = cost.precision == Precision::kFp32
                               ? machine.node.socket.core.peak_fp32_flops()
                               : machine.node.socket.core.peak_flops();
  const double peak = core_peak * cost.efficiency * speed;
  const double t_flop = cost.flops > 0.0 ? cost.flops / peak : 0.0;

  const int sharers =
      std::max(1, world_->layout().ranks_on_socket(loc.node, loc.socket));
  const double bw_share = machine.node.socket.dram_bandwidth_bs / sharers;
  const double t_mem = cost.dram_bytes / bw_share;

  const double dt = std::max(t_flop, t_mem);
  if (dt <= 0.0) return;
  const hw::ActivityKind kind = t_flop >= t_mem ? hw::ActivityKind::kCompute
                                                : hw::ActivityKind::kMemBound;
  log_segment(kind, dt, cost.dram_bytes);
}

bool Request::test() {
  PLIN_CHECK_MSG(comm_ != nullptr, "test on an empty request");
  if (!pending_recv_) return true;
  if (!comm_->iprobe(peer_, tag_)) return false;
  comm_->recv_impl(buffer_, peer_, tag_);
  pending_recv_ = false;
  return true;
}

void Request::wait() {
  PLIN_CHECK_MSG(comm_ != nullptr, "wait on an empty request");
  if (!pending_recv_) return;
  comm_->recv_impl(buffer_, peer_, tag_);
  pending_recv_ = false;
}

void wait_all(std::span<Request> requests) {
  for (Request& request : requests) {
    if (request.valid()) request.wait();
  }
}

bool Comm::iprobe(int src, int tag) {
  PLIN_CHECK_MSG(src >= 0 && src < size(), "iprobe source out of range");
  if (world_->aborted()) throw Aborted();
  return me().mailbox.probe(src, tag, context_);
}

void Comm::idle_wait(double dt) {
  PLIN_CHECK_MSG(dt >= 0.0, "idle_wait duration must be non-negative");
  if (dt <= 0.0) return;
  log_segment(hw::ActivityKind::kCommWait, dt);
}

void Comm::memory_touch(double bytes) {
  PLIN_CHECK_MSG(bytes >= 0.0, "bytes must be non-negative");
  if (bytes <= 0.0) return;
  const hw::RankLocation& loc = my_location();
  const hw::MachineSpec& machine = world_->layout().machine();
  const int sharers =
      std::max(1, world_->layout().ranks_on_socket(loc.node, loc.socket));
  const double bw_share = machine.node.socket.dram_bandwidth_bs / sharers;
  log_segment(hw::ActivityKind::kMemBound, bytes / bw_share, bytes);
}

void Comm::send_impl(std::span<const std::byte> data, int dst, int tag,
                     bool control, bool halo) {
  PLIN_CHECK_MSG(dst >= 0 && dst < size(), "send destination out of range");
  PLIN_CHECK_MSG(dst != rank_, "send to self is not supported");
  if (world_->aborted()) throw Aborted();

  const double t_start = now();
  const double overhead = world_->network().per_message_overhead();
  log_segment(hw::ActivityKind::kCommActive, overhead,
              static_cast<double>(data.size()));

  const int dst_world = world_rank_of(dst);
  const hw::LinkClass link =
      world_->layout().link_between(world_rank(), dst_world);
  const double arrival =
      now() + world_->network().transfer_time(
                  link, static_cast<double>(data.size()));

  Envelope envelope;
  envelope.src = rank_;
  envelope.src_world = world_rank();
  envelope.tag = tag;
  envelope.context = context_;
  envelope.arrival_time = arrival;
  if (prof::SpanRecorder* rec = recorder()) {
    envelope.send_seq = rec->next_send_seq();
    rec->send(t_start, now(), dst_world,
              static_cast<std::int64_t>(data.size()), tag,
              envelope.send_seq);
  }
  // The transport attaches the payload: straight into the receiver's
  // registered buffer when the rendezvous conditions hold, else into a
  // pooled eager buffer (docs/xmpi.md).
  world_->deliver(dst_world, std::move(envelope), data);

  TrafficCounters& traffic = me().traffic;
  if (control) {
    traffic.control_messages += 1;
    traffic.control_bytes += data.size();
  } else {
    traffic.data_messages += 1;
    traffic.data_bytes += data.size();
    if (halo) {
      traffic.halo_messages += 1;
      traffic.halo_bytes += data.size();
    }
  }
}

void Comm::recv_impl(std::span<std::byte> data, int src, int tag) {
  PLIN_CHECK_MSG(src >= 0 && src < size(), "recv source out of range");
  Envelope envelope =
      me().mailbox.match(src, tag, context_, data, world_->abort_flag());
  PLIN_CHECK_MSG(envelope.bytes == data.size(),
                 "recv buffer size does not match message size");

  const double overhead = world_->network().per_message_overhead();
  const double arrival = envelope.arrival_time;
  const double current = now();
  if (arrival > current) {
    log_segment(hw::ActivityKind::kCommWait, arrival - current);
  }
  log_segment(hw::ActivityKind::kCommActive, overhead,
              static_cast<double>(data.size()));
  if (prof::SpanRecorder* rec = recorder()) {
    rec->recv(current, now(), arrival, envelope.src_world,
              static_cast<std::int64_t>(data.size()), envelope.tag,
              envelope.send_seq);
  }

  // Rendezvous deliveries already sit in `data`; eager payloads are copied
  // out here and their buffer returns to the pool when `envelope` dies
  // (the original transport dropped it on the allocator instead).
  if (!envelope.inplace && !envelope.payload.empty()) {
    std::memcpy(data.data(), envelope.payload.data(), envelope.bytes);
  }
  TrafficCounters& traffic = me().traffic;
  traffic.recv_messages += 1;
  traffic.recv_bytes += envelope.bytes;
}

void Comm::barrier() {
  // Dissemination barrier: after ceil(log2 P) rounds every rank has
  // (transitively) heard from every other, so each clock ends at or beyond
  // the latest entry time.
  prof_collective_begin("barrier");
  for (int mask = 1; mask < size(); mask <<= 1) {
    const int dst = (rank_ + mask) % size();
    const int src = (rank_ - mask + size()) % size();
    send_impl({}, dst, internal_tag::kBarrier, /*control=*/true);
    recv_impl({}, src, internal_tag::kBarrier);
  }
  prof_collective_end();
}

void Comm::bcast_impl(std::span<std::byte> data, int root, int stream) {
  PLIN_CHECK_MSG(root >= 0 && root < size(), "bcast root out of range");
  PLIN_CHECK_MSG(stream >= 0 && stream < 16, "bcast stream out of range");
  if (size() == 1) return;
  prof_collective_begin("bcast");
  const int tag =
      stream == 0 ? internal_tag::kBcast
                  : internal_tag::kBcastStreamBase - stream;
  const int vrank = (rank_ - root + size()) % size();

  int mask = 1;
  while (mask < size()) {
    if (vrank & mask) {
      const int src = ((vrank - mask) + root) % size();
      recv_impl(data, src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size()) {
      const int dst = ((vrank + mask) + root) % size();
      send_impl(data, dst, tag, /*control=*/false);
    }
    mask >>= 1;
  }
  prof_collective_end();
}

Comm::MaxLoc Comm::allreduce_maxloc(double value, long long index) {
  return maxloc_impl<double>(value, index);
}

Comm::MaxLocT<float> Comm::allreduce_maxloc(float value, long long index) {
  return maxloc_impl<float>(value, index);
}

Comm Comm::split(int color, int key) {
  struct Entry {
    int color;
    int key;
    int parent_rank;
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  prof_collective_begin("split");

  // Allgather of (color, key): gather to rank 0, then broadcast. Counted as
  // control traffic — communicator management, not application data.
  if (rank_ != 0) {
    send_impl(std::as_bytes(std::span<const Entry>(&mine, 1)), 0,
              internal_tag::kSplit, /*control=*/true);
  } else {
    all[0] = mine;
    for (int src = 1; src < size(); ++src) {
      recv_impl(std::as_writable_bytes(std::span<Entry>(
                    &all[static_cast<std::size_t>(src)], 1)),
                src, internal_tag::kSplit);
    }
  }
  // Broadcast the table (binomial tree on control tag).
  {
    std::span<std::byte> bytes = std::as_writable_bytes(std::span<Entry>(all));
    if (size() > 1) {
      const int vrank = rank_;
      int mask = 1;
      while (mask < size()) {
        if (vrank & mask) {
          recv_impl(bytes, vrank - mask, internal_tag::kSplit);
          break;
        }
        mask <<= 1;
      }
      mask >>= 1;
      while (mask > 0) {
        if (vrank + mask < size()) {
          send_impl(bytes, vrank + mask, internal_tag::kSplit,
                    /*control=*/true);
        }
        mask >>= 1;
      }
    }
  }

  std::vector<Entry> members;
  for (const Entry& entry : all) {
    if (entry.color == color) members.push_back(entry);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.parent_rank < b.parent_rank;
  });

  std::vector<int> group;
  group.reserve(members.size());
  int new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(world_rank_of(members[i].parent_rank));
    if (members[i].parent_rank == rank_) new_rank = static_cast<int>(i);
  }
  PLIN_CHECK(new_rank >= 0);
  prof_collective_end();

  const std::uint64_t context = world_->intern_context(context_, split_seq_++);
  return Comm(world_, std::move(group), new_rank, context);
}

}  // namespace plin::xmpi
