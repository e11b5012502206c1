#include "batch/manifest.hpp"

#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <sstream>

#include "support/error.hpp"
#include "support/kvfile.hpp"

namespace plin::batch {
namespace {

[[noreturn]] void fail(const KvLine& line, const std::string& what) {
  throw InvalidArgument("manifest line " + std::to_string(line.line_no) +
                        ": " + what);
}

const std::string& single_value(const KvLine& line) {
  if (line.values.size() != 1) {
    fail(line, "key '" + line.key + "' takes exactly one value");
  }
  return line.values[0];
}

long parse_long(const KvLine& line, const std::string& token) {
  try {
    std::size_t used = 0;
    const long value = std::stol(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    fail(line, "not an integer: " + token);
  }
}

double parse_num(const KvLine& line, const std::string& token) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    fail(line, "not a number: " + token);
  }
}

/// Sets the values axis `name` spans from `tokens`.
void set_axis(CampaignManifest& manifest, const KvLine& line,
              const std::string& name,
              std::span<const std::string> tokens) {
  const Axis* axis = find_axis(name);
  if (axis == nullptr) {
    std::string names;
    for (const Axis& a : axes()) names += std::string(" | ") + a.name;
    fail(line, "unknown axis '" + name + "' (" + names.substr(3) + ")");
  }
  std::vector<JobSpec>& values =
      manifest.grid[static_cast<std::size_t>(axis - axes().data())];
  values.assign(tokens.size(), JobSpec{});
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    try {
      axis->codec.parse(values[i], tokens[i]);
    } catch (const InvalidArgument& e) {
      fail(line, name + ": " + e.what());
    }
  }
}

/// Largest grid a manifest may expand to.
constexpr std::size_t kMaxJobs = 100000;

// Saturating arithmetic, so an absurd grid cannot wrap past the size limit.
constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

std::size_t saturating_mul(std::size_t a, std::size_t b) {
  return b != 0 && a > kSizeMax / b ? kSizeMax : a * b;
}

/// Why `manifest` expands to no job: for each algorithm in the grid, the
/// first axis none of whose grid values that algorithm accepts.
std::string empty_grid_reason(const CampaignManifest& manifest) {
  const std::span<const Axis> table = axes();
  std::string reason;
  for (const JobSpec& point : manifest.values("algorithm")) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (std::string_view(table[i].name) == "algorithm") continue;
      std::string tokens;
      bool accepted = false;
      for (const JobSpec& value : manifest.grid[i]) {
        accepted = accepted || table[i].allows(value, point.algorithm);
        tokens += " " + table[i].codec.print(value);
      }
      if (accepted) continue;
      reason += (reason.empty() ? "" : ", ") +
                std::string(algorithm_token(point.algorithm)) +
                " does not accept " + table[i].name + tokens;
      break;
    }
  }
  return reason;
}

}  // namespace

const std::vector<JobSpec>& CampaignManifest::values(
    std::string_view name) const {
  const Axis* axis = find_axis(name);
  PLIN_CHECK_MSG(axis != nullptr, "manifest: unknown axis");
  return grid[static_cast<std::size_t>(axis - axes().data())];
}

std::vector<JobSpec> CampaignManifest::expand() const {
  const std::span<const Axis> table = axes();
  std::vector<JobSpec> specs;
  specs.reserve(job_count());
  JobSpec spec;
  // Odometer over the axes, the first outermost; a point holding a value
  // its algorithm does not accept is skipped.
  const auto walk = [&](const auto& self, std::size_t i) -> void {
    if (i == table.size()) {
      for (const Axis& axis : table) {
        if (!axis.allows(spec, spec.algorithm)) return;
      }
      specs.push_back(spec);
      return;
    }
    for (const JobSpec& value : grid[i]) {
      table[i].codec.copy(spec, value);
      self(self, i + 1);
    }
  };
  walk(walk, 0);
  return specs;
}

std::size_t CampaignManifest::job_count() const {
  // Whether a value is accepted depends only on the algorithm, so count
  // each algorithm's points as a product over the other axes.
  const std::span<const Axis> table = axes();
  std::size_t total = 0;
  for (const JobSpec& point : values("algorithm")) {
    std::size_t points = 1;
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (std::string_view(table[i].name) == "algorithm") continue;
      std::size_t accepted = 0;
      for (const JobSpec& value : grid[i]) {
        if (table[i].allows(value, point.algorithm)) ++accepted;
      }
      points = saturating_mul(points, accepted);
    }
    total = points > kSizeMax - total ? kSizeMax : total + points;
  }
  return total;
}

CampaignManifest parse_manifest(const std::string& text) {
  CampaignManifest manifest;
  for (const KvLine& line : parse_kv_text(text)) {
    if (line.key == "campaign") {
      manifest.name = single_value(line);
    } else if (line.key == "workers") {
      const long v = parse_long(line, single_value(line));
      if (v <= 0) fail(line, "workers must be positive");
      manifest.workers = static_cast<int>(v);
    } else if (line.key == "retries") {
      const long v = parse_long(line, single_value(line));
      if (v < 0) fail(line, "retries must be >= 0");
      manifest.retries = static_cast<int>(v);
    } else if (line.key == "timeout_s") {
      const double v = parse_num(line, single_value(line));
      if (v < 0.0) fail(line, "timeout_s must be >= 0");
      manifest.timeout_s = v;
    } else if (line.key == "grid") {
      if (line.values.size() < 2) {
        fail(line, "grid lines need an axis name and at least one value");
      }
      set_axis(manifest, line, line.values[0],
               std::span(line.values).subspan(1));
    } else if (find_axis(line.key) != nullptr) {
      set_axis(manifest, line, line.key, std::span(&single_value(line), 1));
    } else {
      fail(line, "unknown key '" + line.key +
                     "' (campaign | workers | retries | timeout_s | grid | "
                     "an axis name)");
    }
  }

  for (const JobSpec& tier : manifest.values("tier")) {
    for (const JobSpec& cap : manifest.values("power_cap_w")) {
      if (tier.tier == Tier::kReplay && cap.power_cap_w > 0.0) {
        throw InvalidArgument(
            "manifest: power caps are numeric-tier only (perfsim does not "
            "model capped frequency scaling)");
      }
    }
  }
  const std::size_t jobs = manifest.job_count();
  if (jobs == 0) {
    throw InvalidArgument("manifest: the grid expands to no job: " +
                          empty_grid_reason(manifest));
  }
  if (jobs > kMaxJobs) {
    throw InvalidArgument("manifest: the grid expands to more than " +
                          std::to_string(kMaxJobs) + " jobs");
  }
  return manifest;
}

CampaignManifest load_manifest_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot read manifest file: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_manifest(buffer.str());
}

}  // namespace plin::batch
