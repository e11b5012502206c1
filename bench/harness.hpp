// One harness for the gated perf benches (bench_kernels, bench_xmpi,
// bench_collectives, bench_scale, bench_prof, bench_batch, bench_serve,
// bench_mixed, bench_sparse, bench_cg): flags, the record schema, the
// baseline comparator, gates and host timing.
//
// Flags, parsed through CliArgs::require_known:
//   --smoke           CI sizes ("mode": "smoke"; otherwise "full")
//   --check           exit 1 if a gate or a baseline comparison fails
//   --out=PATH        document path (default BENCH_<harness>.json)
//   --baseline=PATH   a document in this schema to compare against
//   --help            usage, exit 0
// plus each harness's declared extras. An unknown flag, a positional
// argument or a malformed value exits 2 before any workload runs. A harness
// built without checks (bench_xmpi) declares no --check or --baseline.
//
// Record schema "powerlin-bench/v1", one compact JSON document:
//   {"schema": "powerlin-bench/v1", "harness": "cg", "mode": "smoke",
//    "records": [{"metric": "fused_iters", "value": 24, "unit": "count",
//                 "clock": "none", "rule": "exact", "baseline": 24}, ...],
//    "gates": [{"name": "baseline fused_iters", "ok": true,
//               "detail": "24 vs baseline 24 (exact)"}, ...]}
// - metric: dotted path for nested detail, e.g.
//   gemm.square.192.fp64.gflops_blocked or server.scheduler.rejected.
// - value: a number (booleans are 0/1 with unit "bool"); null if the
//   measurement was not finite.
// - clock: what produced the value (the bench_e2e names): host_s (host wall
//   clock), virtual_s (simulated time), modeled_j (simulated energy) or none
//   (counts, bytes, residuals, configuration).
// - rule: present on a baselined record: exact, rel(tol) (|v - b| <= tol*|b|)
//   or at_most(factor) (v <= factor*b).
// - baseline: the baseline value the record was compared with, present after
//   a --check --baseline run.
// - gates: every pass/fail decision of the run, baseline comparisons
//   included; they fail the exit status only under --check.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace plin::bench {

inline constexpr const char* kSchema = "powerlin-bench/v1";

enum class Clock { kHost, kVirtual, kModeled, kNone };

inline const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kHost: return "host_s";
    case Clock::kVirtual: return "virtual_s";
    case Clock::kModeled: return "modeled_j";
    case Clock::kNone: break;
  }
  return "none";
}

/// How a baselined record is compared with its baseline value b.
struct Rule {
  enum class Kind { kNone, kExact, kRel, kAtMost };
  Kind kind = Kind::kNone;
  double param = 0.0;

  bool holds(double value, double base) const {
    switch (kind) {
      case Kind::kExact: return value == base;
      case Kind::kRel:
        return std::fabs(value - base) <= param * std::fabs(base);
      case Kind::kAtMost: return value <= param * base;
      case Kind::kNone: break;
    }
    return true;
  }

  std::string name() const {
    char buf[64] = "";
    if (kind == Kind::kExact) return "exact";
    if (kind == Kind::kRel) std::snprintf(buf, sizeof(buf), "rel(%g)", param);
    if (kind == Kind::kAtMost) {
      std::snprintf(buf, sizeof(buf), "at_most(%g)", param);
    }
    return buf;
  }
};

inline Rule exact() { return {Rule::Kind::kExact, 0.0}; }
inline Rule rel(double tol) { return {Rule::Kind::kRel, tol}; }
inline Rule at_most(double factor) { return {Rule::Kind::kAtMost, factor}; }

/// Optimization barrier: the compiler must assume `value` (and, for a
/// pointer, the memory behind it) is read, so a timed loop stays un-elided.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Repetition policy of best_seconds: after one warm run taking `first`
/// seconds, run `fast` more times if first < fast_below, `slow` more if
/// first > slow_above, else `normal` more.
struct Reps {
  double fast_below = 0.02;
  int fast = 6;
  int normal = 3;
  double slow_above = 2.0;
  int slow = 1;
};

template <typename F>
double seconds(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-N host wall clock of `body`; the warm run counts as a sample.
template <typename F>
double best_seconds(F&& body, Reps reps = {}) {
  const double first = seconds(body);
  int more = reps.normal;
  if (first < reps.fast_below) more = reps.fast;
  if (first > reps.slow_above) more = reps.slow;
  double best = first;
  for (int r = 0; r < more; ++r) best = std::min(best, seconds(body));
  return best;
}

class Harness {
 public:
  /// Parses argv for harness `name` ("cg" for bench_cg). Exits 0 after
  /// --help and 2 on an unknown flag or a positional argument.
  Harness(std::string name, int argc, const char* const* argv,
          std::initializer_list<std::string_view> extras = {},
          bool checks = true)
      : name_(std::move(name)), args_(argc, argv) {
    std::vector<std::string_view> known = {"smoke", "out", "help"};
    std::string usage = "usage: bench_" + name_ + " [--smoke] [--out=PATH]";
    if (checks) {
      known.insert(known.end(), {"check", "baseline"});
      usage += " [--check] [--baseline=PATH]";
    }
    for (const std::string_view flag : extras) {
      known.push_back(flag);
      usage += " [--" + std::string(flag) + "=N]";
    }
    usage += " [--help]";
    try {
      args_.require_known(known);
      if (!args_.positional().empty()) {
        throw InvalidArgument("unexpected argument '" +
                              args_.positional().front() + "'");
      }
      smoke_ = flag_bool("smoke");
      check_ = flag_bool("check");
      if (flag_bool("help")) {
        std::printf("%s\n", usage.c_str());
        std::exit(0);
      }
    } catch (const Error& error) {
      std::fprintf(stderr, "error: %s\n%s\n", error.what(), usage.c_str());
      std::exit(2);
    }
    out_path_ = args_.get("out", "BENCH_" + name_ + ".json");
    baseline_path_ = args_.get("baseline", "");
  }

  bool smoke() const { return smoke_; }

  /// An integer extra flag no smaller than `min`; exits 2 on anything else.
  long int_flag(const std::string& flag, long fallback, long min) const {
    try {
      const long value = args_.get_int(flag, fallback);
      if (value < min) {
        throw InvalidArgument("flag --" + flag + " must be >= " +
                              std::to_string(min));
      }
      return value;
    } catch (const Error& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      std::exit(2);
    }
  }

  void record(std::string metric, double value, std::string unit,
              Clock clock, Rule rule = {}) {
    records_.push_back(
        {std::move(metric), value, std::move(unit), clock, rule, {}});
  }

  void gate(std::string name, bool ok, std::string detail) {
    gates_.push_back({std::move(name), ok, std::move(detail)});
  }

  /// Compares the baselined records (under --check --baseline), writes the
  /// document and reports the gates. Returns the exit status: 1 if the
  /// write failed or, under --check, a gate failed; 0 otherwise.
  int finish() {
    if (check_ && !baseline_path_.empty()) compare_baseline();
    if (!write()) {
      std::fprintf(stderr, "FAIL: could not write %s\n", out_path_.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path_.c_str());
    if (!check_) return 0;
    bool pass = true;
    for (const Gate& g : gates_) {
      if (g.ok) {
        std::printf("check ok: %s: %s\n", g.name.c_str(), g.detail.c_str());
      } else {
        std::fprintf(stderr, "FAIL: %s: %s\n", g.name.c_str(),
                     g.detail.c_str());
        pass = false;
      }
    }
    std::fflush(stdout);
    return pass ? 0 : 1;
  }

 private:
  struct Record {
    std::string metric;
    double value;
    std::string unit;
    Clock clock;
    Rule rule;
    std::optional<double> baseline;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };

  bool flag_bool(const std::string& flag) const {
    const std::string value = args_.get(flag, "false");
    if (value == "true" || value == "false") return value == "true";
    throw InvalidArgument("flag --" + flag + " takes no value, got '" +
                          value + "'");
  }

  /// Shortest text that reads back as the same double.
  static std::string number(double value) {
    char buf[64];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }

  void compare_baseline() {
    std::map<std::string, double> base;
    try {
      std::ifstream in(baseline_path_, std::ios::binary);
      if (!in) throw Error("cannot read the file");
      std::ostringstream text;
      text << in.rdbuf();
      const json::Value doc = json::parse(text.str());
      if (doc.at("schema").as_string() != kSchema ||
          doc.at("harness").as_string() != name_) {
        throw Error("not a " + std::string(kSchema) + " document of harness " +
                    name_);
      }
      for (const json::Value& b : doc.at("records").as_array()) {
        base[b.at("metric").as_string()] = b.at("value").as_number();
      }
    } catch (const Error& error) {
      gate("baseline", false, baseline_path_ + ": " + error.what());
      return;
    }
    for (Record& r : records_) {
      if (r.rule.kind == Rule::Kind::kNone) continue;
      const std::string name = "baseline " + r.metric;
      const auto it = base.find(r.metric);
      if (it == base.end()) {
        gate(name, false, "no record " + r.metric + " in " + baseline_path_);
        continue;
      }
      r.baseline = it->second;
      gate(name, r.rule.holds(r.value, it->second),
           number(r.value) + " vs baseline " + number(it->second) + " (" +
               r.rule.name() + ")");
    }
  }

  bool write() const {
    json::Array records;
    for (const Record& r : records_) {
      json::Value v = json::make_object();
      v.set("metric", r.metric);
      v.set("value", std::isfinite(r.value) ? json::Value(r.value)
                                            : json::Value(nullptr));
      v.set("unit", r.unit);
      v.set("clock", clock_name(r.clock));
      if (r.rule.kind != Rule::Kind::kNone) v.set("rule", r.rule.name());
      if (r.baseline) v.set("baseline", *r.baseline);
      records.push_back(std::move(v));
    }
    json::Array gates;
    for (const Gate& g : gates_) {
      json::Value v = json::make_object();
      v.set("name", g.name);
      v.set("ok", g.ok);
      v.set("detail", g.detail);
      gates.push_back(std::move(v));
    }
    json::Value doc = json::make_object();
    doc.set("schema", kSchema);
    doc.set("harness", name_);
    doc.set("mode", smoke_ ? "smoke" : "full");
    doc.set("records", std::move(records));
    doc.set("gates", std::move(gates));
    std::ofstream out(out_path_, std::ios::binary | std::ios::trunc);
    out << json::serialize(doc) << "\n";
    return static_cast<bool>(out.flush());
  }

  std::string name_;
  CliArgs args_;
  bool smoke_ = false;
  bool check_ = false;
  std::string out_path_;
  std::string baseline_path_;
  std::vector<Record> records_;
  std::vector<Gate> gates_;
};

}  // namespace plin::bench
