// EnergyLedger — integrates the PowerModel over recorded per-core activity
// to produce the per-package and per-DRAM energies that the simulated RAPL
// counters expose.
//
// One ledger exists per simulated node. Each package has one append lane
// per core, fixed at construction, each behind its own cache-line-aligned
// mutex, so ranks on different cores append without contending; the
// (rare) counter reads performed by the monitoring rank scan the lanes in
// index order and clip segments against the query time. Power caps are
// atomics, so reading one takes no lock. Package
// energy at time t is
//
//   pkg_base * t  +  core_idle * (unused core-time)  +  sum of segment
//   dynamic energy, scaled by the active power cap if one is set;
//
// a package with no ranks placed on it additionally receives
// `idle_socket_leakage` times the sibling package's dynamic energy — the
// paper's §5.3 observation that the "idle" socket consumes only 50–60% less
// than the busy one.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "hwmodel/power.hpp"

namespace plin::trace {

struct ActivitySegment {
  double t0 = 0.0;
  double t1 = 0.0;
  hw::ActivityKind kind = hw::ActivityKind::kIdle;
  double dram_bytes = 0.0;  // memory traffic attributed to this segment
};

class EnergyLedger {
 public:
  /// `cores_per_package[p]` = cores physically present on package p;
  /// `ranked_cores_per_package[p]` = cores that have a rank scheduled.
  EnergyLedger(hw::PowerModel power, std::vector<int> cores_per_package,
               std::vector<int> ranked_cores_per_package);

  int packages() const { return static_cast<int>(cores_.size()); }

  /// Appends one activity segment executed on `package`. Thread-safe.
  ///
  /// `lane` buckets the segment by core index within the package, in
  /// [0, cores_per_package[package]) (InvalidArgument otherwise), i.e. one
  /// lane per rank. Reads accumulate lane by lane in lane order, and each
  /// lane is appended by a single rank in its program order — so every
  /// energy/traffic sum has a host-schedule-independent floating-point
  /// association, part of xmpi's bit-identical-results contract
  /// (docs/xmpi.md). Callers that don't care (tests) can leave everything
  /// in lane 0.
  void record(int package, const ActivitySegment& segment, int lane = 0);

  /// Sets (watts) or clears (0) the RAPL power cap of a package. Capping
  /// scales the dynamic energy of *subsequent* reads; the throughput side
  /// of the cap is applied by the execution engine via
  /// PowerModel::cap_effect. Lock-free on both sides.
  void set_package_cap(int package, double watts);
  double package_cap(int package) const;

  /// Cumulative package energy in joules over virtual [0, t].
  double package_energy_j(int package, double t) const;

  /// Cumulative DRAM-domain energy in joules over virtual [0, t].
  double dram_energy_j(int package, double t) const;

  /// Dynamic (above idle) energy of the package's cores over [0, t];
  /// exposed for the leakage model and for test introspection.
  double package_dynamic_j(int package, double t) const;

  /// Total bytes of DRAM traffic recorded against the package's domain.
  double dram_traffic_bytes(int package, double t) const;

  /// Core-seconds spent in `kind` on this package over [0, t] (sum across
  /// the package's cores) — the utilization breakdown behind the power
  /// numbers.
  double activity_seconds(int package, hw::ActivityKind kind, double t) const;

  const hw::PowerModel& power_model() const { return power_; }

 private:
  /// One append-only log and the mutex guarding it, on its own cache line.
  struct alignas(64) Lane {
    mutable std::mutex mutex;
    std::vector<ActivitySegment> segments;
  };

  /// Calls `visit(segment)` for every segment of `package`, lane by lane in
  /// index order, each lane in append order, holding that lane's mutex.
  template <typename Visit>
  void for_each_segment(int package, Visit&& visit) const;

  double dynamic_j(int package, double t) const;
  void check_package(int package) const;

  hw::PowerModel power_;
  std::vector<int> cores_;
  std::vector<int> ranked_cores_;
  std::vector<std::atomic<double>> caps_w_;
  /// Package p owns lanes_[first_lane_[p] .. first_lane_[p + 1]).
  std::vector<std::size_t> first_lane_;
  std::vector<Lane> lanes_;
};

}  // namespace plin::trace
