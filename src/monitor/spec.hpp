// Job description — one configured job (the paper's §4 testing framework:
// algorithm, matrix size, ranks, layout, ...) on either execution tier,
// with a stable content-addressed key, plus the axis table that writes it.
//
// Every JobSpec field is one entry of axes(): its names, its token, the
// algorithms it applies to and its key rule. canonical(), describe(), the
// spec JSON codec (store records and the serve protocol), manifest grids
// and the optional report columns all walk that table, so a new field is
// one new entry (docs/campaign.md, "Adding an axis").
//
// The key is an FNV-1a 64-bit hash of canonical(), which covers every field
// that influences the job's *result* plus a format-version tag. Execution
// policy (timeout, retries, worker count) deliberately stays out: re-running
// the same science with a different schedule must hit the cache.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hwmodel/machine.hpp"
#include "hwmodel/placement.hpp"
#include "perfsim/prediction.hpp"
#include "solvers/cg/precond.hpp"
#include "sparse/generate.hpp"
#include "support/json.hpp"

namespace plin::monitor {

/// Which execution substrate runs the job (DESIGN.md §2's two tiers).
enum class Tier {
  kNumeric,  // real solvers on xmpi under the white-box monitor
  kReplay,   // perfsim analytic replay at paper scale
};

/// Tokens of the fixed report columns ("numeric", "full", "scalapack", ...).
const char* to_string(Tier tier);
const char* layout_token(hw::LoadLayout layout);
const char* algorithm_token(perfsim::Algorithm algorithm);

/// One fully specified job. Defaults describe a small numeric-tier run.
struct JobSpec {
  Tier tier = Tier::kNumeric;
  /// Machine name: "marconi" | "epyc" | "mini:<nodes>x<cores_per_socket>".
  std::string machine = "mini:16x4";
  perfsim::Algorithm algorithm = perfsim::Algorithm::kIme;
  std::size_t n = 256;
  int ranks = 4;
  hw::LoadLayout layout = hw::LoadLayout::kFullLoad;
  std::size_t nb = 32;       // ScaLAPACK block size
  std::uint64_t seed = 1;
  int repetitions = 1;       // the paper uses 10 on the real machine
  int iterations = 100;      // key text only: no job reads or varies it
  double power_cap_w = 0.0;  // per-package RAPL cap; 0 = uncapped
  /// fp64, or mixed: fp32 factorization + fp64 refinement (scalapack only).
  perfsim::Precision precision = perfsim::Precision::kFp64;
  /// CG only: the sparse family, the preconditioner and the
  /// relative-residual convergence target.
  sparse::SparseKind matrix = sparse::SparseKind::kStencil5;
  solvers::CgPrecond precond = solvers::CgPrecond::kNone;
  double tolerance = 1e-11;

  /// Canonical serialization: the hash pre-image, also usable as a fully
  /// qualified human-readable job id.
  std::string canonical() const;

  /// Content-addressed key: 16 lowercase hex digits of FNV-1a 64.
  std::string key() const;

  /// Short description for progress logs: the headline fields, then every
  /// other keyed field that differs from its default.
  std::string describe() const;

  /// The replay tier's model input for this job.
  perfsim::Workload workload() const;
};

/// A set of algorithms, one bit per perfsim::Algorithm.
using Algorithms = unsigned;
inline constexpr Algorithms kEveryAlgorithm = ~0u;
constexpr Algorithms only(perfsim::Algorithm algorithm) {
  return 1u << static_cast<unsigned>(algorithm);
}

/// When a field is part of the canonical string. Both rules are
/// append-only: a field added later uses kUnlessDefault (or applies to a
/// new algorithm only), so every key journaled before it existed is
/// unchanged.
enum class KeyRule {
  kWhenApplies,    // in the key of every job the field applies to
  kUnlessDefault,  // in the key only while it differs from its default
};

/// How one field's value is printed, parsed, serialized and compared.
/// parse and from_json throw InvalidArgument on a bad token, a non-integer
/// count, or a value out of the field's range.
struct FieldCodec {
  std::string (*print)(const JobSpec& spec);
  void (*parse)(JobSpec& spec, const std::string& token);
  json::Value (*to_json)(const JobSpec& spec);
  void (*from_json)(JobSpec& spec, const json::Value& value);
  void (*copy)(JobSpec& to, const JobSpec& from);
  bool (*same)(const JobSpec& a, const JobSpec& b);
};

/// One JobSpec field. Table order is the canonical-string order, the JSON
/// field order and the manifest expansion order (first axis outermost).
struct Axis {
  const char* name;  // spec JSON field, manifest key and report column
  const char* key;   // its name in the canonical string
  const char* flag = nullptr;  // powerlin_run flag, if it has one
  KeyRule rule = KeyRule::kWhenApplies;
  /// Algorithms whose jobs carry the field. Other jobs leave it out of
  /// their key and JSON, and its report column reads "-" for them.
  Algorithms applies = kEveryAlgorithm;
  /// Algorithms that accept a non-default value (within `applies`): other
  /// grid points are skipped, and validate() rejects such specs.
  Algorithms varies = kEveryAlgorithm;
  bool headline = false;  // describe() shows it even at its default
  FieldCodec codec;

  bool applies_to(perfsim::Algorithm algorithm) const {
    return (applies & only(algorithm)) != 0;
  }
  /// Whether `value`'s field is acceptable in a job running `algorithm`.
  bool allows(const JobSpec& value, perfsim::Algorithm algorithm) const;
  /// Whether the field is part of `spec`'s canonical string.
  bool keyed(const JobSpec& spec) const;
  /// Left out of some keys: such a field gets a report column only once a
  /// job in the report keys it, so older reports keep their bytes.
  bool conditional() const {
    return rule == KeyRule::kUnlessDefault || applies != kEveryAlgorithm;
  }
  /// Report cell: the token, or "-" where the field does not apply.
  std::string cell(const JobSpec& spec) const;
};

/// The axis table, one entry per JobSpec field.
std::span<const Axis> axes();

/// The entry named `name`, or nullptr.
const Axis* find_axis(std::string_view name);

/// Throws InvalidArgument when a field holds a non-default value that the
/// job's algorithm does not accept (e.g. mixed precision for IMe).
void validate(const JobSpec& spec);

/// The spec JSON codec shared by store records and the serve protocol.
/// spec_to_json writes the keyed fields in table order; spec_from_json
/// starts from the defaults, rejects unknown fields, range-checks every
/// value (InvalidArgument) and validates the result.
json::Value spec_to_json(const JobSpec& spec);
JobSpec spec_from_json(const json::Value& value);

/// The conditional axes that at least one job keys, in table order: the
/// optional columns of a report over `jobs` (anything with a `.spec`).
struct OptionalColumns {
  std::vector<const Axis*> axes;

  bool has(std::string_view name) const;
};

template <typename Jobs>
OptionalColumns optional_columns(const Jobs& jobs) {
  OptionalColumns columns;
  for (const Axis& axis : axes()) {
    if (!axis.conditional()) continue;
    for (const auto& job : jobs) {
      if (axis.keyed(job.spec)) {
        columns.axes.push_back(&axis);
        break;
      }
    }
  }
  return columns;
}

/// Resolves a machine name ("marconi" | "epyc" | "mini:<N>x<C>") to its
/// MachineSpec; throws InvalidArgument on anything else.
hw::MachineSpec machine_from_name(const std::string& name);

/// FNV-1a 64-bit (exposed for tests).
std::uint64_t fnv1a64(std::string_view text);

}  // namespace plin::monitor
