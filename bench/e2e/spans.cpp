#include <cmath>
#include <filesystem>
#include <fstream>

#include "e2e.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace plin::e2e {
namespace {

// Self time is a span's duration minus its children's, so the sums below
// can only miss through a span left open: a consistency check of the log,
// not evidence that the children account for their parent's work.
constexpr double kReconcileTolerance = 0.01;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

void write_file(const std::string& path, const json::Value& value) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json::serialize(value) << "\n";
  if (!out) throw IoError("bench_e2e: cannot write " + path);
}

/// Running totals of one span name over every span that has children.
struct Level {
  std::size_t count = 0;
  double total_s = 0.0;
  double unattributed_s = 0.0;
  std::map<std::string, double> children;
};

}  // namespace

SpanLog::SpanLog() : origin_(Clock::now()) {}

SpanLog::Id SpanLog::begin(std::string name, Id parent, std::string job) {
  const double start =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      threads_.emplace(std::this_thread::get_id(), threads_.size());
  spans_.push_back(Span{std::move(name), std::move(job), parent, it->second,
                        start, -1.0});
  return spans_.size() - 1;
}

void SpanLog::end(Id id) {
  const double end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id).end_s = end;
}

double SpanLog::seconds(Id id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& span = spans_.at(id);
  return span.end_s >= 0.0 ? span.end_s - span.start_s : 0.0;
}

bool SpanLog::write(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::filesystem::create_directories(dir);

  const std::size_t n = spans_.size();
  std::vector<double> duration(n);
  std::vector<double> child_sum(n, 0.0);
  std::vector<bool> has_children(n, false);
  bool reconciled = true;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    if (span.end_s < 0.0) reconciled = false;  // a span never closed
    duration[i] = span.end_s >= 0.0 ? span.end_s - span.start_s : 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (spans_[i].parent == kNoParent) continue;
    child_sum[spans_[i].parent] += duration[i];
    has_children[spans_[i].parent] = true;
  }

  json::Array events;
  events.reserve(n);
  // Self time per (root span name, layer); levels by parent span name.
  std::map<std::string, std::map<std::string, std::pair<double, std::size_t>>>
      self;
  std::map<std::string, double> root_total;
  std::map<std::string, Level> levels;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    json::Value args = json::make_object();
    args.set("id", static_cast<double>(i));
    args.set("parent",
             span.parent == kNoParent ? -1.0 : static_cast<double>(span.parent));
    args.set("job", span.job);
    json::Value event = json::make_object();
    event.set("name", span.name);
    event.set("cat", layer_of(span.name));
    event.set("ph", "X");
    event.set("ts", span.start_s * 1e6);
    event.set("dur", duration[i] * 1e6);
    event.set("pid", 1);
    event.set("tid", static_cast<double>(span.thread));
    event.set("args", std::move(args));
    events.push_back(std::move(event));

    std::size_t root = i;
    while (spans_[root].parent != kNoParent) root = spans_[root].parent;
    const double self_s = duration[i] - child_sum[i];
    auto& cell = self[spans_[root].name][layer_of(span.name)];
    cell.first += self_s;
    ++cell.second;
    if (root == i) root_total[span.name] += duration[i];

    if (span.parent != kNoParent) {
      levels[spans_[span.parent].name].children[span.name] += duration[i];
    }
    if (has_children[i]) {
      Level& level = levels[span.name];
      ++level.count;
      level.total_s += duration[i];
      level.unattributed_s += self_s;
    }
  }

  json::Value trace = json::make_object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", "ms");
  write_file(dir + "/spans.json", trace);

  auto within = [](double whole, double parts) {
    return std::abs(whole - parts) <= kReconcileTolerance * std::abs(whole);
  };
  json::Value roots = json::make_object();
  for (const auto& [root_name, layers] : self) {
    json::Value layer_table = json::make_object();
    double sum = 0.0;
    for (const auto& [layer, cell] : layers) {
      json::Value entry = json::make_object();
      entry.set("self_s", cell.first);
      entry.set("count", static_cast<double>(cell.second));
      layer_table.set(layer, std::move(entry));
      sum += cell.first;
    }
    const bool ok = within(root_total[root_name], sum);
    reconciled = reconciled && ok;
    json::Value entry = json::make_object();
    entry.set("total_s", root_total[root_name]);
    entry.set("layers", std::move(layer_table));
    entry.set("reconciled", ok);
    roots.set(root_name, std::move(entry));
  }
  json::Array level_rows;
  for (const auto& [name, level] : levels) {
    if (level.count == 0) continue;
    json::Value children = json::make_object();
    double parts = level.unattributed_s;
    for (const auto& [child, seconds] : level.children) {
      children.set(child, seconds);
      parts += seconds;
    }
    const bool ok = within(level.total_s, parts);
    reconciled = reconciled && ok;
    json::Value row = json::make_object();
    row.set("span", name);
    row.set("count", static_cast<double>(level.count));
    row.set("total_s", level.total_s);
    row.set("children", std::move(children));
    row.set(layer_of(name) + ".unattributed_s", level.unattributed_s);
    row.set("reconciled", ok);
    level_rows.push_back(std::move(row));
  }
  json::Value layers = json::make_object();
  layers.set("clock", "host_s");
  layers.set("tolerance", kReconcileTolerance);
  layers.set("reconciled", reconciled);
  layers.set("roots", std::move(roots));
  layers.set("levels", std::move(level_rows));
  write_file(dir + "/layers.json", layers);
  return reconciled;
}

Scope::Scope(SpanLog* log, std::string name, SpanLog::Id parent,
             std::string job)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->begin(std::move(name), parent, std::move(job));
}

Scope::~Scope() {
  if (log_ != nullptr) log_->end(id_);
}

}  // namespace plin::e2e
