// Shared xmpi types: internal tags, reduce operations, compute cost
// descriptors and traffic counters.
#pragma once

#include <cstddef>
#include <cstdint>

namespace plin::xmpi {

/// Tags of collective-internal traffic. User tags must be >= 0; negative
/// tags are reserved for these.
namespace internal_tag {
inline constexpr int kBarrier = -2;
inline constexpr int kBcast = -3;
inline constexpr int kReduce = -4;
inline constexpr int kGather = -5;
inline constexpr int kSplit = -6;
inline constexpr int kAllgather = -7;
/// Pairwise-exchange traffic of the scalable allreduce schedules
/// (reduce-scatter/allgather halves and recursive doubling).
inline constexpr int kAllreduce = -8;
/// Pre/post-fold traffic that folds non-power-of-two rank counts onto the
/// power-of-two core of the scalable allreduce schedules.
inline constexpr int kFold = -9;
/// Base for user-selected broadcast streams (Comm::bcast stream parameter):
/// stream s uses tag kBcastStreamBase - s. Distinct streams have
/// independent FIFO channels, so two logically concurrent broadcast
/// sequences (e.g. IMeP's pivot-column and auxiliary-vector streams) may be
/// issued in different per-rank orders without cross-matching.
inline constexpr int kBcastStreamBase = -16;
}  // namespace internal_tag

enum class ReduceOp { kSum, kMax, kMin };

// -- collective tuning knob -------------------------------------------------
//
// Resolved by World::configure_transport: an explicit kTree/kScalable wins;
// kAuto falls back to the PLIN_XMPI_COLL environment variable, then to the
// default noted below. The collective mode changes the simulated schedule
// itself (see docs/xmpi.md for the determinism contract).

/// Collective schedule family. kTree is the seed root/tree schedule set —
/// canonical outputs depend on its virtual timing, so it stays the
/// default. kScalable replaces the root-funneled allreduce/allgather/
/// maxloc with reduce-scatter+allgather / recursive-doubling / ring
/// schedules that move O(log P) or O(1) of the root-funnel volume through
/// any single rank.
enum class CollectiveMode { kAuto, kTree, kScalable };

struct TransportConfig {
  CollectiveMode collectives = CollectiveMode::kAuto;
};

/// Scalar width of the arithmetic behind a ComputeCost. fp32 runs against
/// the core's single-precision peak (twice the SIMD lanes through the same
/// FMA units — hw::CoreSpec::peak_fp32_flops); callers charging fp32 work
/// also halve their DRAM/link byte terms themselves (the payloads are
/// 4-byte floats). The default keeps every existing fp64 charge formula
/// bit-identical.
enum class Precision { kFp64, kFp32 };

/// Cost descriptor for Comm::compute. `efficiency` is the fraction of the
/// core's peak throughput at `precision` this kernel sustains; the rank's
/// virtual time advances by max(flop time, memory time) and `dram_bytes`
/// is charged to the socket's DRAM domain.
struct ComputeCost {
  double flops = 0.0;
  double dram_bytes = 0.0;
  double efficiency = 1.0;
  Precision precision = Precision::kFp64;
};

/// Global message/volume counters, split into the application data traffic
/// that the paper's M/V formulas count and control traffic (barriers,
/// communicator management).
struct TrafficCounters {
  std::uint64_t data_messages = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  /// Receive-side mirror (all classes combined). Per rank, send + recv
  /// counters together give the total volume that flows *through* the rank
  /// — the quantity the root-funnel collectives concentrate on rank 0 and
  /// the scalable schedules spread out (bench_collectives).
  std::uint64_t recv_messages = 0;
  std::uint64_t recv_bytes = 0;
  /// Halo-exchange payloads (Comm::isend_halo) — a subset of
  /// the data_* counters above, tracked separately so campaign reports can
  /// surface the per-iteration ghost traffic a CG job actually shipped
  /// (docs/sparse.md).
  std::uint64_t halo_messages = 0;
  std::uint64_t halo_bytes = 0;

  /// The paper measures volume in "number of floating points".
  double data_floats() const { return static_cast<double>(data_bytes) / 8.0; }

  /// Send-side plus receive-side bytes of one rank (its root-funnel load).
  std::uint64_t through_bytes() const {
    return data_bytes + control_bytes + recv_bytes;
  }

  TrafficCounters operator-(const TrafficCounters& other) const {
    return TrafficCounters{data_messages - other.data_messages,
                           data_bytes - other.data_bytes,
                           control_messages - other.control_messages,
                           control_bytes - other.control_bytes,
                           recv_messages - other.recv_messages,
                           recv_bytes - other.recv_bytes,
                           halo_messages - other.halo_messages,
                           halo_bytes - other.halo_bytes};
  }
};

}  // namespace plin::xmpi
