// Campaign manifests — the declarative analogue of the paper's SLURM batch
// scripts. A manifest names the campaign, sets execution policy (workers,
// retries, timeout) and spans a grid over the JobSpec axes (monitor/spec.hpp).
// Syntax is the support/kvfile line format; see docs/campaign.md for the
// reference.
//
//   campaign  ci-smoke
//   tier      numeric
//   machine   mini:8x4
//   reps      2
//   workers   4
//   retries   1
//   timeout_s 600
//   grid algorithm ime scalapack
//   grid n         192 256
//   grid ranks     4 8
//   grid layout    full half1 half2
//
// A line keyed by an axis name sets that axis to one value; `grid <axis>`
// spans several. expand() walks the grid in axis-table order (tier,
// machine, algorithm, n, ranks, layout, nb, seed, reps, iterations, cap,
// precision, matrix, precond, tolerance — outermost first), whatever the
// order of the lines, so job order, and therefore every report derived
// from it, is deterministic. A non-default value expands only for the
// algorithms its axis accepts (mixed for scalapack, matrix / precond /
// tolerance for cg): the other algorithms keep their single default point.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "batch/spec.hpp"

namespace plin::batch {

struct CampaignManifest {
  std::string name = "campaign";
  int workers = 1;
  int retries = 0;
  double timeout_s = 0.0;  // per job; 0 = unlimited

  /// One entry per axis, in axes() order: the values the axis spans, each
  /// held in an otherwise-default JobSpec. An axis the manifest does not
  /// name spans its default alone.
  std::vector<std::vector<JobSpec>> grid =
      std::vector<std::vector<JobSpec>>(axes().size(), {JobSpec{}});

  /// The values axis `name` spans.
  const std::vector<JobSpec>& values(std::string_view name) const;

  /// Expands the grid into one JobSpec per point, canonical order.
  std::vector<JobSpec> expand() const;

  /// Total grid size without materializing the specs.
  std::size_t job_count() const;
};

/// Parses manifest text; throws InvalidArgument naming the offending line
/// on unknown keys, bad values, or empty grids.
CampaignManifest parse_manifest(const std::string& text);

/// Reads and parses a manifest file (IoError if unreadable).
CampaignManifest load_manifest_file(const std::string& path);

}  // namespace plin::batch
