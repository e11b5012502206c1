#include "trace/ledger.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"

namespace plin::trace {
namespace {

/// Fraction of [t0, t1] that lies within [0, t].
double clipped_span(double t0, double t1, double t) {
  return std::max(0.0, std::min(t1, t) - t0);
}

}  // namespace

EnergyLedger::EnergyLedger(hw::PowerModel power,
                           std::vector<int> cores_per_package,
                           std::vector<int> ranked_cores_per_package)
    : power_(power),
      cores_(std::move(cores_per_package)),
      ranked_cores_(std::move(ranked_cores_per_package)),
      caps_w_(cores_.size()) {
  PLIN_CHECK(!cores_.empty());
  PLIN_CHECK(ranked_cores_.size() == cores_.size());
  first_lane_.push_back(0);
  for (const int cores : cores_) {
    PLIN_CHECK_MSG(cores >= 1, "a package needs at least one core");
    first_lane_.push_back(first_lane_.back() + static_cast<std::size_t>(cores));
  }
  lanes_ = std::vector<Lane>(first_lane_.back());
}

void EnergyLedger::check_package(int package) const {
  PLIN_CHECK_MSG(package >= 0 && package < packages(), "package out of range");
}

void EnergyLedger::record(int package, const ActivitySegment& segment,
                          int lane) {
  check_package(package);
  const std::size_t p = static_cast<std::size_t>(package);
  if (lane < 0 || lane >= cores_[p]) {
    throw InvalidArgument("EnergyLedger::record: lane " + std::to_string(lane) +
                          " outside the " + std::to_string(cores_[p]) +
                          " cores of package " + std::to_string(package));
  }
  PLIN_ASSERT(segment.t1 >= segment.t0);
  Lane& target = lanes_[first_lane_[p] + static_cast<std::size_t>(lane)];
  std::lock_guard<std::mutex> lock(target.mutex);
  target.segments.push_back(segment);
}

void EnergyLedger::set_package_cap(int package, double watts) {
  check_package(package);
  PLIN_CHECK_MSG(watts >= 0.0, "power cap must be non-negative");
  caps_w_[static_cast<std::size_t>(package)].store(watts);
}

double EnergyLedger::package_cap(int package) const {
  check_package(package);
  return caps_w_[static_cast<std::size_t>(package)].load();
}

// Reads iterate lanes in index order and each lane in append order, so
// accumulation order — hence the floating-point result — does not depend
// on how rank execution interleaved on the host.

template <typename Visit>
void EnergyLedger::for_each_segment(int package, Visit&& visit) const {
  const std::size_t p = static_cast<std::size_t>(package);
  for (std::size_t i = first_lane_[p]; i < first_lane_[p + 1]; ++i) {
    std::lock_guard<std::mutex> lock(lanes_[i].mutex);
    for (const ActivitySegment& seg : lanes_[i].segments) visit(seg);
  }
}

double EnergyLedger::dynamic_j(int package, double t) const {
  const double idle_w = power_.core_power_w(hw::ActivityKind::kIdle);
  double joules = 0.0;
  for_each_segment(package, [&](const ActivitySegment& seg) {
    const double span = clipped_span(seg.t0, seg.t1, t);
    if (span > 0.0) joules += span * (power_.core_power_w(seg.kind) - idle_w);
  });
  return joules;
}

double EnergyLedger::package_dynamic_j(int package, double t) const {
  check_package(package);
  return dynamic_j(package, t);
}

double EnergyLedger::package_energy_j(int package, double t) const {
  check_package(package);
  PLIN_CHECK_MSG(t >= 0.0, "query time must be non-negative");
  const std::size_t p = static_cast<std::size_t>(package);
  const double idle_w = power_.core_power_w(hw::ActivityKind::kIdle);
  double joules = power_.pkg_base_w() * t + cores_[p] * idle_w * t;

  double dynamic = dynamic_j(package, t);
  const double cap = caps_w_[p].load();
  if (ranked_cores_[p] == 0 && packages() == 2) {
    // Nominally idle socket: picks up a fraction of the busy sibling's
    // dynamic power (OS noise, snoops, uncore clocks) — DESIGN.md §5.
    const int sibling = package == 0 ? 1 : 0;
    dynamic = power_.idle_socket_leakage() * dynamic_j(sibling, t);
  } else if (cap > 0.0) {
    dynamic *= power_.cap_effect(cap, ranked_cores_[p]).dynamic_scale;
  }
  return joules + dynamic;
}

double EnergyLedger::dram_energy_j(int package, double t) const {
  check_package(package);
  PLIN_CHECK_MSG(t >= 0.0, "query time must be non-negative");
  return power_.dram_base_w() * t +
         dram_traffic_bytes(package, t) * power_.dram_energy_per_byte();
}

double EnergyLedger::activity_seconds(int package, hw::ActivityKind kind,
                                      double t) const {
  check_package(package);
  double seconds = 0.0;
  for_each_segment(package, [&](const ActivitySegment& seg) {
    if (seg.kind == kind) seconds += clipped_span(seg.t0, seg.t1, t);
  });
  return seconds;
}

double EnergyLedger::dram_traffic_bytes(int package, double t) const {
  check_package(package);
  double bytes = 0.0;
  for_each_segment(package, [&](const ActivitySegment& seg) {
    const double length = seg.t1 - seg.t0;
    if (length <= 0.0) {
      // Instantaneous traffic attribution: counts if it happened before t.
      if (seg.t0 <= t) bytes += seg.dram_bytes;
      return;
    }
    bytes += seg.dram_bytes * (clipped_span(seg.t0, seg.t1, t) / length);
  });
  return bytes;
}

}  // namespace plin::trace
