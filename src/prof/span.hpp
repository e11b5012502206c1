// prof — structured span tracing over xmpi's virtual clocks.
//
// Every traced rank owns one SpanRecorder (recorder.hpp). The xmpi hooks
// feed it three families of records:
//
//   - activity spans: an exact mirror of the EnergyLedger segments the rank
//     produced (compute / membound / comm-active / comm-wait), so joules can
//     be re-derived per span and attributed to phases;
//   - message spans: one kSend per send_impl, one kRecv per completed
//     receive (carrying the sender's world rank and per-sender sequence
//     number), forming the dependency graph the critical-path walk follows;
//   - brackets: named phase spans (solver/monitor regions, unbounded) and
//     collective spans (barrier/bcast/reduce/..., ring-buffered), plus
//     zero-length instants (PAPI read points).
//
// All timestamps are virtual seconds. Nothing here depends on the host
// scheduler, so the collected TraceData — and every canonical export built
// from it — is byte-identical across worker counts
// (docs/tracing.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwmodel/power.hpp"

namespace plin::prof {

enum class SpanKind : std::uint8_t {
  kActivity,    // one EnergyLedger segment; `activity` holds the kind
  kSend,        // send_impl: local overhead + payload on the wire
  kRecv,        // completed receive: entry .. copied-out
  kCollective,  // one collective call (barrier/bcast/reduce/gather/...)
  kInstant,     // zero-length marker
};

/// One ring-buffered record. Fields outside a kind's family are zero.
struct Span {
  double t0 = 0.0;
  double t1 = 0.0;
  /// kActivity: DRAM bytes attributed to the segment.
  /// kRecv: virtual arrival time of the matched message (t0 < aux means
  /// the receiver waited on the sender).
  double aux = 0.0;
  std::int64_t bytes = 0;   // payload bytes (kSend/kRecv)
  std::uint64_t seq = 0;    // sender-local message sequence (kSend/kRecv)
  SpanKind kind = SpanKind::kActivity;
  hw::ActivityKind activity = hw::ActivityKind::kIdle;  // kActivity only
  std::int32_t name = -1;   // name-table id (kCollective/kInstant)
  std::int32_t peer = -1;   // world rank of the other side (kSend/kRecv)
  std::int32_t tag = 0;     // message tag (kSend/kRecv)
};

/// A closed begin/end bracket. Phases live outside the span ring: they are
/// low-frequency and the energy attribution needs every one of them.
struct PhaseSpan {
  double t0 = 0.0;
  double t1 = 0.0;
  std::int32_t name = -1;
  std::int32_t depth = 0;  // nesting depth at open time (0 = outermost)
};

/// Per-peer message totals. Kept as counters (not ring entries) so the
/// communication matrix stays exact even when the span ring overflows.
struct PeerStat {
  int peer = -1;  // world rank of the other side
  std::uint64_t sent_messages = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t recv_messages = 0;
  std::uint64_t recv_bytes = 0;
  /// Receive-side blocked time charged to messages from `peer`.
  double recv_wait_s = 0.0;
};

/// Everything one rank recorded, extracted after its rank_main returned.
struct RankTrace {
  int world_rank = 0;
  int node = 0;
  int socket = 0;
  int core = 0;
  double finish_s = 0.0;            // the rank's final virtual clock value
  std::vector<std::string> names;   // id -> string, interned in program order
  std::vector<PhaseSpan> phases;    // close order
  std::vector<Span> spans;          // ring contents, oldest first
  std::uint64_t dropped = 0;        // spans evicted by the ring
  std::vector<PeerStat> peers;      // sorted by peer world rank
};

/// EnergyLedger totals of one package over [0, duration], copied out while
/// the World is alive so analyses can reconcile span joules against the
/// authoritative counters.
struct PackagePower {
  int node = 0;
  int package = 0;
  double pkg_j = 0.0;   // == RunResult.energy value for this package
  double dram_j = 0.0;
  double dram_traffic_bytes = 0.0;
  double cap_w = 0.0;            // active RAPL cap (0 = uncapped)
  double dynamic_scale = 1.0;    // cap_effect dynamic scale applied at read
  int ranked_cores = 0;
};

/// One run's collected trace: the input to analysis.hpp and export.hpp.
struct TraceData {
  double duration_s = 0.0;
  std::uint64_t ring_capacity = 0;
  hw::PowerSpec power;
  std::vector<RankTrace> ranks;        // world-rank order
  std::vector<PackagePower> packages;  // node-major, package-minor

  std::uint64_t dropped_spans() const {
    std::uint64_t total = 0;
    for (const RankTrace& rank : ranks) total += rank.dropped;
    return total;
  }
};

}  // namespace plin::prof
