#include "monitor/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "support/error.hpp"

namespace plin::monitor {

const char* to_string(Tier tier) {
  return tier == Tier::kNumeric ? "numeric" : "replay";
}

const char* layout_token(hw::LoadLayout layout) {
  switch (layout) {
    case hw::LoadLayout::kFullLoad: return "full";
    case hw::LoadLayout::kHalfLoadOneSocket: return "half1";
    case hw::LoadLayout::kHalfLoadTwoSockets: return "half2";
  }
  return "full";
}

const char* algorithm_token(perfsim::Algorithm algorithm) {
  switch (algorithm) {
    case perfsim::Algorithm::kIme: return "ime";
    case perfsim::Algorithm::kScalapack: return "scalapack";
    case perfsim::Algorithm::kCg: return "cg";
  }
  return "ime";
}

namespace {

Tier parse_tier(const std::string& token) {
  if (token == "numeric") return Tier::kNumeric;
  if (token == "replay") return Tier::kReplay;
  throw InvalidArgument("unknown tier (use numeric | replay): " + token);
}

hw::LoadLayout parse_layout_token(const std::string& token) {
  if (token == "full") return hw::LoadLayout::kFullLoad;
  if (token == "half1") return hw::LoadLayout::kHalfLoadOneSocket;
  if (token == "half2") return hw::LoadLayout::kHalfLoadTwoSockets;
  throw InvalidArgument("unknown layout (use full | half1 | half2): " +
                        token);
}

perfsim::Algorithm parse_algorithm_token(const std::string& token) {
  if (token == "ime") return perfsim::Algorithm::kIme;
  if (token == "scalapack") return perfsim::Algorithm::kScalapack;
  if (token == "cg") return perfsim::Algorithm::kCg;
  throw InvalidArgument("unknown algorithm (use ime | scalapack | cg): " +
                        token);
}

perfsim::Precision parse_precision_token(const std::string& token) {
  if (token == "fp64") return perfsim::Precision::kFp64;
  if (token == "mixed") return perfsim::Precision::kMixed;
  throw InvalidArgument("unknown precision (use fp64 | mixed): " + token);
}

/// Whole-token decimal parse of an unsigned integer; false on a sign, junk
/// or overflow.
bool parse_decimal(std::string_view token, unsigned long long& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// --- codecs: one per value kind, each printing, parsing and range-checking
// the values of one field type.

/// A field with a fixed token set (the enums).
template <typename T, const char* (*Print)(T),
          T (*Parse)(const std::string&)>
struct TokenCodec {
  static std::string print(T v) { return Print(v); }
  static T parse(const std::string& token) { return Parse(token); }
  static json::Value to_json(T v) { return Print(v); }
  static T from_json(const json::Value& v) { return Parse(v.as_string()); }
};

/// A machine name, resolved eagerly so a typo fails where it is written.
struct MachineCodec {
  static std::string print(const std::string& v) { return v; }
  static std::string parse(const std::string& token) {
    (void)machine_from_name(token);
    return token;
  }
  static json::Value to_json(const std::string& v) { return v; }
  static std::string from_json(const json::Value& v) {
    return parse(v.as_string());
  }
};

/// An integer count no smaller than Min.
template <typename T, T Min>
struct CountCodec {
  static std::string print(T v) { return std::to_string(v); }
  static T parse(const std::string& token) {
    unsigned long long v = 0;
    if (!parse_decimal(token, v) || v < Min ||
        v > std::numeric_limits<T>::max()) {
      throw InvalidArgument("expected an integer >= " + std::to_string(Min) +
                            ", got '" + token + "'");
    }
    return static_cast<T>(v);
  }
  static json::Value to_json(T v) { return static_cast<double>(v); }
  static T from_json(const json::Value& v) {
    return json::as_integer<T>(v, Min);
  }
};

/// A finite real in the range Range::ok accepts.
template <typename Range>
struct RealCodec {
  static std::string print(double v) { return json::format_number(v); }
  static double parse(const std::string& token) {
    double v = 0.0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, v);
    if (ec != std::errc() || ptr != end) {
      throw InvalidArgument("not a number: '" + token + "'");
    }
    return check(v);
  }
  static json::Value to_json(double v) { return v; }
  static double from_json(const json::Value& v) {
    return check(v.as_number());
  }
  static double check(double v) {
    if (!std::isfinite(v) || !Range::ok(v)) {
      char got[32];
      std::snprintf(got, sizeof(got), "%.17g", v);
      throw InvalidArgument(std::string("expected ") + Range::kWhat +
                            ", got " + got);
    }
    return v;
  }
};

struct NonNegative {
  static constexpr const char* kWhat = "a number >= 0";
  static bool ok(double v) { return v >= 0.0; }
};

struct OpenUnitInterval {
  static constexpr const char* kWhat = "a number in (0, 1)";
  static bool ok(double v) { return v > 0.0 && v < 1.0; }
};

/// The FieldCodec of JobSpec member `Field` through value codec `C`.
template <auto Field, typename C>
constexpr FieldCodec codec() {
  return {
      [](const JobSpec& s) { return C::print(s.*Field); },
      [](JobSpec& s, const std::string& token) { s.*Field = C::parse(token); },
      [](const JobSpec& s) { return C::to_json(s.*Field); },
      [](JobSpec& s, const json::Value& v) { s.*Field = C::from_json(v); },
      [](JobSpec& to, const JobSpec& from) { to.*Field = from.*Field; },
      [](const JobSpec& a, const JobSpec& b) { return a.*Field == b.*Field; },
  };
}

using Algorithm = perfsim::Algorithm;
using TierCodec = TokenCodec<Tier, to_string, parse_tier>;
using AlgorithmCodec =
    TokenCodec<Algorithm, algorithm_token, parse_algorithm_token>;
using LayoutCodec =
    TokenCodec<hw::LoadLayout, layout_token, parse_layout_token>;
using PrecisionCodec = TokenCodec<perfsim::Precision, perfsim::to_string,
                                  parse_precision_token>;
using MatrixCodec = TokenCodec<sparse::SparseKind, sparse::kind_token,
                               sparse::parse_kind_token>;
using PrecondCodec = TokenCodec<solvers::CgPrecond, solvers::precond_token,
                                solvers::parse_precond_token>;

// The axis table. Appending an entry adds a field everywhere a job is
// written out; its key rule must leave every existing key unchanged.
const Axis kAxes[] = {
    {.name = "tier", .key = "tier", .flag = "tier",
     .codec = codec<&JobSpec::tier, TierCodec>()},
    {.name = "machine", .key = "machine",
     .codec = codec<&JobSpec::machine, MachineCodec>()},
    {.name = "algorithm", .key = "algorithm", .flag = "algorithm",
     .headline = true,
     .codec = codec<&JobSpec::algorithm, AlgorithmCodec>()},
    {.name = "n", .key = "n", .flag = "n", .headline = true,
     .codec = codec<&JobSpec::n, CountCodec<std::size_t, 1>>()},
    {.name = "ranks", .key = "ranks", .flag = "ranks", .headline = true,
     .codec = codec<&JobSpec::ranks, CountCodec<int, 1>>()},
    {.name = "layout", .key = "layout", .flag = "layout",
     .codec = codec<&JobSpec::layout, LayoutCodec>()},
    {.name = "nb", .key = "nb", .flag = "nb",
     .codec = codec<&JobSpec::nb, CountCodec<std::size_t, 1>>()},
    {.name = "seed", .key = "seed", .flag = "seed",
     .codec = codec<&JobSpec::seed, CountCodec<std::uint64_t, 0>>()},
    {.name = "reps", .key = "reps", .flag = "reps",
     .codec = codec<&JobSpec::repetitions, CountCodec<int, 1>>()},
    // Key-only: the field no solver reads stays in every key (dropping it
    // would orphan every journaled record), and no job may change it.
    {.name = "iterations", .key = "iterations", .varies = 0,
     .codec = codec<&JobSpec::iterations, CountCodec<int, 1>>()},
    {.name = "power_cap_w", .key = "cap_w",
     .codec = codec<&JobSpec::power_cap_w, RealCodec<NonNegative>>()},
    {.name = "precision", .key = "precision", .flag = "precision",
     .rule = KeyRule::kUnlessDefault, .varies = only(Algorithm::kScalapack),
     .codec = codec<&JobSpec::precision, PrecisionCodec>()},
    {.name = "matrix", .key = "matrix", .flag = "matrix",
     .applies = only(Algorithm::kCg), .varies = only(Algorithm::kCg),
     .codec = codec<&JobSpec::matrix, MatrixCodec>()},
    {.name = "precond", .key = "precond", .flag = "precond",
     .rule = KeyRule::kUnlessDefault, .applies = only(Algorithm::kCg),
     .varies = only(Algorithm::kCg),
     .codec = codec<&JobSpec::precond, PrecondCodec>()},
    {.name = "tolerance", .key = "tolerance", .flag = "tol",
     .rule = KeyRule::kUnlessDefault, .applies = only(Algorithm::kCg),
     .varies = only(Algorithm::kCg),
     .codec = codec<&JobSpec::tolerance, RealCodec<OpenUnitInterval>>()},
};

const JobSpec& default_spec() {
  static const JobSpec spec;
  return spec;
}

}  // namespace

bool Axis::allows(const JobSpec& value, perfsim::Algorithm algorithm) const {
  return (varies & only(algorithm)) != 0 || codec.same(value, default_spec());
}

bool Axis::keyed(const JobSpec& spec) const {
  return applies_to(spec.algorithm) &&
         (rule == KeyRule::kWhenApplies || !codec.same(spec, default_spec()));
}

std::string Axis::cell(const JobSpec& spec) const {
  return applies_to(spec.algorithm) ? codec.print(spec) : "-";
}

std::span<const Axis> axes() { return kAxes; }

const Axis* find_axis(std::string_view name) {
  for (const Axis& axis : kAxes) {
    if (name == axis.name) return &axis;
  }
  return nullptr;
}

void validate(const JobSpec& spec) {
  for (const Axis& axis : kAxes) {
    if (!axis.allows(spec, spec.algorithm)) {
      throw InvalidArgument(std::string(axis.name) + " " +
                            axis.codec.print(spec) + " is not available for " +
                            algorithm_token(spec.algorithm) + " jobs");
    }
  }
}

std::string JobSpec::canonical() const {
  // Version tag first: bump it whenever the meaning of any field changes,
  // so stale store entries turn into cache misses instead of wrong reuse.
  std::string out = "plin-batch-v1";
  for (const Axis& axis : kAxes) {
    if (!axis.keyed(*this)) continue;
    out += '|';
    out += axis.key;
    out += '=';
    out += axis.codec.print(*this);
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string JobSpec::key() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(canonical())));
  return buf;
}

std::string JobSpec::describe() const {
  std::string out;
  const auto append = [&](const Axis& axis) {
    if (!out.empty()) out += ' ';
    out += axis.name;
    out += '=';
    out += axis.codec.print(*this);
  };
  for (const Axis& axis : kAxes) {
    if (axis.headline) append(axis);
  }
  for (const Axis& axis : kAxes) {
    if (!axis.headline && axis.keyed(*this) &&
        !axis.codec.same(*this, default_spec())) {
      append(axis);
    }
  }
  return out;
}

perfsim::Workload JobSpec::workload() const {
  perfsim::Workload out;
  out.algorithm = algorithm;
  out.n = n;
  out.nb = nb;
  out.precision = precision;
  out.matrix = matrix;
  out.tolerance = tolerance;
  out.precond = precond;
  return out;
}

json::Value spec_to_json(const JobSpec& spec) {
  json::Value out = json::make_object();
  for (const Axis& axis : kAxes) {
    if (axis.keyed(spec)) out.set(axis.name, axis.codec.to_json(spec));
  }
  return out;
}

JobSpec spec_from_json(const json::Value& value) {
  JobSpec spec;
  for (const auto& [field, v] : value.as_object()) {
    const Axis* axis = find_axis(field);
    if (axis == nullptr) {
      throw InvalidArgument("unknown spec field '" + field + "'");
    }
    try {
      axis->codec.from_json(spec, v);
    } catch (const Error& e) {
      throw InvalidArgument("spec field '" + field + "': " + e.what());
    }
  }
  validate(spec);
  return spec;
}

bool OptionalColumns::has(std::string_view name) const {
  for (const Axis* axis : axes) {
    if (name == axis->name) return true;
  }
  return false;
}

hw::MachineSpec machine_from_name(const std::string& name) {
  if (name == "marconi") return hw::marconi_a3();
  if (name == "epyc") return hw::epyc_cluster();
  if (name.rfind("mini:", 0) == 0) {
    const std::string_view body = std::string_view(name).substr(5);
    const std::size_t x = body.find('x');
    constexpr unsigned long long kMax = std::numeric_limits<int>::max();
    unsigned long long nodes = 0;
    unsigned long long cores = 0;
    if (x != std::string_view::npos &&
        parse_decimal(body.substr(0, x), nodes) &&
        parse_decimal(body.substr(x + 1), cores) && nodes > 0 &&
        cores > 0 && nodes <= kMax && cores <= kMax) {
      return hw::mini_cluster(static_cast<int>(nodes),
                              static_cast<int>(cores));
    }
  }
  throw InvalidArgument(
      "unknown machine (use marconi | epyc | mini:<nodes>x<cores>): " + name);
}

}  // namespace plin::monitor
