// SpanRecorder — the per-rank recording engine behind span.hpp.
//
// Single-writer by construction: only the owning rank's fiber/thread calls
// the hooks, so there is no locking on the hot path. The xmpi scheduler
// hands a rank's execution between host workers through its queue mutex,
// which orders those accesses (the same contract VirtualClock relies on).
//
// Cost model: every hook is a couple of stores into a preallocated ring.
// When tracing is disabled the hooks are never reached (Comm keeps a null
// recorder pointer); when the subsystem is compiled out (PLIN_PROF_DISABLED
// / -DPLIN_PROF=OFF) the null check itself folds away via kCompiledIn.
//
// The span ring drops the *oldest* spans on overflow — a deterministic
// program-order eviction, so an overflowing trace is still byte-identical
// across worker counts. Phase brackets and per-peer counters live outside the
// ring and are never dropped.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "prof/span.hpp"

namespace plin::prof {

#if defined(PLIN_PROF_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Default span-ring capacity per rank; override via
/// RunConfig::trace_ring_spans or the PLIN_TRACE_SPANS environment variable.
inline constexpr std::size_t kDefaultRingSpans = std::size_t{1} << 16;

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t ring_capacity);
  /// Returns the ring storage to the shared process-wide pool (see
  /// recorder.cpp): with one recorder per rank, eagerly reserving each
  /// ring would multiply to gigabytes at 100k ranks, so rings are leased
  /// and recycled instead.
  ~SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // -- hooks (owning rank only; virtual-time stamps) ----------------------

  /// Mirrors one EnergyLedger activity segment.
  void activity(hw::ActivityKind kind, double t0, double t1,
                double dram_bytes);

  /// Allocates the next send sequence number (stamped into the Envelope so
  /// the receiver can name the matching send span).
  std::uint64_t next_send_seq() { return ++send_seq_; }

  void send(double t0, double t1, int peer_world, std::int64_t bytes,
            int tag, std::uint64_t seq);
  void recv(double t0, double t1, double arrival, int peer_world,
            std::int64_t bytes, int tag, std::uint64_t seq);

  void begin_phase(std::string_view name, double t);
  void end_phase(double t);

  void begin_collective(std::string_view name, double t);
  void end_collective(double t);

  void instant(std::string_view name, double t);

  // -- extraction ---------------------------------------------------------

  std::uint64_t dropped() const;

  /// Moves the recorded data out (ring unrolled oldest-first, open phase /
  /// collective brackets discarded). The recorder is empty afterwards.
  RankTrace take(int world_rank, int node, int socket, int core,
                 double finish_s);

 private:
  std::int32_t intern(std::string_view name);
  void push(const Span& span);

  std::size_t capacity_;
  std::vector<Span> ring_;
  std::size_t head_ = 0;     // eviction cursor once the ring is full
  std::uint64_t total_ = 0;  // spans ever pushed
  std::uint64_t send_seq_ = 0;

  std::vector<PhaseSpan> phases_;  // closed brackets, close order
  std::vector<std::pair<std::int32_t, double>> phase_stack_;
  std::vector<std::pair<std::int32_t, double>> collective_stack_;

  std::vector<std::string> names_;
  std::map<std::string, std::int32_t, std::less<>> name_ids_;

  std::map<int, PeerStat> peers_;
};

}  // namespace plin::prof
