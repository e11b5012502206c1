#include "prof/recorder.hpp"

#include <algorithm>
#include <mutex>

#include "support/error.hpp"

namespace plin::prof {

namespace {

/// Process-wide recycler for span-ring storage. One ring per rank adds up:
/// at 100k ranks an eager 4096-span reserve per recorder would cost
/// gigabytes before a single span is recorded. Rings are leased here on
/// first use, handed back (capacity intact) by take()/destruction, and
/// only kMaxPooledRings vectors are cached so the pool itself stays
/// bounded. With the worker pool only ~workers ranks record
/// concurrently, so the same few rings serve the whole run.
class RingPool {
 public:
  static RingPool& instance() {
    static RingPool* pool = new RingPool();  // leaked: outlive all workers
    return *pool;
  }

  std::vector<Span> acquire(std::size_t capacity) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!rings_.empty()) {
        std::vector<Span> ring = std::move(rings_.back());
        rings_.pop_back();
        ring.clear();
        return ring;
      }
    }
    std::vector<Span> ring;
    ring.reserve(std::min<std::size_t>(capacity, 4096));
    return ring;
  }

  void release(std::vector<Span>&& ring) {
    if (ring.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (rings_.size() < kMaxPooledRings) rings_.push_back(std::move(ring));
  }

 private:
  static constexpr std::size_t kMaxPooledRings = 256;
  std::mutex mutex_;
  std::vector<std::vector<Span>> rings_;
};

}  // namespace

SpanRecorder::SpanRecorder(std::size_t ring_capacity)
    : capacity_(std::max<std::size_t>(ring_capacity, 16)) {}

SpanRecorder::~SpanRecorder() {
  RingPool::instance().release(std::move(ring_));
}

void SpanRecorder::push(const Span& span) {
  ++total_;
  if (ring_.size() < capacity_) {
    // First span: lease ring storage from the pool (constructing the
    // recorder allocates nothing, so idle ranks stay free).
    if (ring_.capacity() == 0) {
      ring_ = RingPool::instance().acquire(capacity_);
    }
    ring_.push_back(span);
    return;
  }
  ring_[head_] = span;
  head_ = (head_ + 1) % capacity_;
}

std::int32_t SpanRecorder::intern(std::string_view name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::int32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

void SpanRecorder::activity(hw::ActivityKind kind, double t0, double t1,
                            double dram_bytes) {
  Span span;
  span.kind = SpanKind::kActivity;
  span.activity = kind;
  span.t0 = t0;
  span.t1 = t1;
  span.aux = dram_bytes;
  push(span);
}

void SpanRecorder::send(double t0, double t1, int peer_world,
                        std::int64_t bytes, int tag, std::uint64_t seq) {
  Span span;
  span.kind = SpanKind::kSend;
  span.t0 = t0;
  span.t1 = t1;
  span.peer = peer_world;
  span.bytes = bytes;
  span.tag = tag;
  span.seq = seq;
  push(span);
  PeerStat& stat = peers_[peer_world];
  stat.peer = peer_world;
  stat.sent_messages += 1;
  stat.sent_bytes += static_cast<std::uint64_t>(bytes);
}

void SpanRecorder::recv(double t0, double t1, double arrival, int peer_world,
                        std::int64_t bytes, int tag, std::uint64_t seq) {
  Span span;
  span.kind = SpanKind::kRecv;
  span.t0 = t0;
  span.t1 = t1;
  span.aux = arrival;
  span.peer = peer_world;
  span.bytes = bytes;
  span.tag = tag;
  span.seq = seq;
  push(span);
  PeerStat& stat = peers_[peer_world];
  stat.peer = peer_world;
  stat.recv_messages += 1;
  stat.recv_bytes += static_cast<std::uint64_t>(bytes);
  if (arrival > t0) stat.recv_wait_s += arrival - t0;
}

void SpanRecorder::begin_phase(std::string_view name, double t) {
  phase_stack_.emplace_back(intern(name), t);
}

void SpanRecorder::end_phase(double t) {
  PLIN_CHECK_MSG(!phase_stack_.empty(),
                 "prof: end_phase without a matching begin_phase");
  const auto [name, t0] = phase_stack_.back();
  phase_stack_.pop_back();
  PhaseSpan phase;
  phase.t0 = t0;
  phase.t1 = t;
  phase.name = name;
  phase.depth = static_cast<std::int32_t>(phase_stack_.size());
  phases_.push_back(phase);
}

void SpanRecorder::begin_collective(std::string_view name, double t) {
  collective_stack_.emplace_back(intern(name), t);
}

void SpanRecorder::end_collective(double t) {
  PLIN_CHECK_MSG(!collective_stack_.empty(),
                 "prof: end_collective without a matching begin_collective");
  const auto [name, t0] = collective_stack_.back();
  collective_stack_.pop_back();
  Span span;
  span.kind = SpanKind::kCollective;
  span.t0 = t0;
  span.t1 = t;
  span.name = name;
  push(span);
}

void SpanRecorder::instant(std::string_view name, double t) {
  Span span;
  span.kind = SpanKind::kInstant;
  span.t0 = t;
  span.t1 = t;
  span.name = intern(name);
  push(span);
}

std::uint64_t SpanRecorder::dropped() const {
  return total_ - static_cast<std::uint64_t>(ring_.size());
}

RankTrace SpanRecorder::take(int world_rank, int node, int socket, int core,
                             double finish_s) {
  RankTrace out;
  out.world_rank = world_rank;
  out.node = node;
  out.socket = socket;
  out.core = core;
  out.finish_s = finish_s;
  out.names = std::move(names_);
  out.phases = std::move(phases_);
  out.dropped = dropped();
  // Unroll the ring oldest-first (head_ is the eviction cursor, i.e. the
  // oldest surviving span once the ring has wrapped).
  out.spans.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.spans.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  out.peers.reserve(peers_.size());
  for (const auto& [peer, stat] : peers_) out.peers.push_back(stat);

  RingPool::instance().release(std::move(ring_));
  ring_ = std::vector<Span>();
  head_ = 0;
  total_ = 0;
  names_.clear();
  name_ids_.clear();
  phases_.clear();
  phase_stack_.clear();
  collective_stack_.clear();
  peers_.clear();
  return out;
}

}  // namespace plin::prof
