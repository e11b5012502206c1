// Analyses over one run's TraceData: per-phase energy attribution, the
// rank×rank communication matrix, and critical-path extraction through the
// send/recv dependency graph.
//
// All three are pure functions of TraceData, iterate ranks in world-rank
// order and spans in program order, and therefore produce byte-identical
// results across worker counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prof/span.hpp"

namespace plin::prof {

// -- energy attribution ---------------------------------------------------

struct PhaseEnergyRow {
  std::string phase;        // "(unphased)" / "(baseline)" pseudo-rows
  double seconds = 0.0;     // core-seconds of ledger activity in the phase
  double compute_s = 0.0;
  double membound_s = 0.0;
  double commactive_s = 0.0;
  double commwait_s = 0.0;
  double cpu_j = 0.0;       // cap-scaled dynamic CPU energy
  double dram_j = 0.0;      // DRAM traffic energy
};

/// Joins the activity spans (exact mirrors of the EnergyLedger segments)
/// to the innermost enclosing phase bracket of their rank. The final
/// "(baseline)" row carries package base + idle-core + idle-socket-leakage
/// energy and is constructed so that summing `rows` front to back
/// reproduces `total_cpu_j` / `total_dram_j` — which are themselves the
/// ledger package totals summed in package order, i.e. bit-identical to
/// RunResult.energy — with no lost or double-counted joules.
struct EnergyAttribution {
  std::vector<PhaseEnergyRow> rows;  // first-appearance order
  double total_cpu_j = 0.0;          // == sum of PackagePower.pkg_j
  double total_dram_j = 0.0;         // == sum of PackagePower.dram_j
  bool complete = true;              // false once the span ring dropped
  std::uint64_t dropped_spans = 0;
};

EnergyAttribution attribute_energy(const TraceData& trace);

// -- communication matrix -------------------------------------------------

struct CommEdge {
  int src = 0;
  int dst = 0;
  std::uint64_t messages = 0;  // sender-side count (data + control)
  std::uint64_t bytes = 0;
  double wait_s = 0.0;         // receiver-side blocked time on this edge
};

struct CommMatrix {
  int ranks = 0;
  std::vector<CommEdge> edges;  // sorted by (src, dst); zero edges omitted
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  double total_wait_s = 0.0;
};

/// Built from the per-peer counters, so it is exact even when the span
/// ring overflowed.
CommMatrix comm_matrix(const TraceData& trace);

// -- critical path --------------------------------------------------------

struct CriticalPhase {
  std::string phase;          // "(unphased)" for activity outside brackets
  double critical_s = 0.0;    // time this phase spends on the critical path
  double total_rank_s = 0.0;  // core-seconds of the phase across all ranks
  double slack_s = 0.0;       // total_rank_s - critical_s
};

/// The longest dependency chain ending at the last-finishing rank: local
/// activity runs the chain backwards until a receive that actually waited,
/// then jumps to the matching send on the sender (named by the per-sender
/// sequence number stamped into every envelope).
struct CriticalPath {
  double duration_s = 0.0;   // == TraceData.duration_s
  int end_rank = -1;         // last rank to finish (ties: lowest rank)
  int rank_switches = 0;     // sender jumps taken by the walk
  bool truncated = false;    // a ring-dropped span broke the chain
  double compute_s = 0.0;    // path time by activity kind
  double membound_s = 0.0;
  double commactive_s = 0.0;
  double commwait_s = 0.0;
  double network_s = 0.0;    // in-flight gaps between send end and arrival
  std::vector<CriticalPhase> phases;  // first-appearance order
};

CriticalPath critical_path(const TraceData& trace);

}  // namespace plin::prof
