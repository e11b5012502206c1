#include "batch/report.hpp"

#include <algorithm>

#include "support/csv.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace plin::batch {
namespace {

struct JobAggregate {
  SampleStats duration;
  SampleStats total_j;
  SampleStats pkg_j;
  SampleStats dram_j;
  double power_w = 0.0;     // mean total energy / mean duration
  double worst_residual = 0.0;
};

JobAggregate aggregate(const JobRecord& record) {
  std::vector<double> duration;
  std::vector<double> total;
  std::vector<double> pkg;
  std::vector<double> dram;
  duration.reserve(record.repetitions.size());
  for (const RepetitionRecord& rep : record.repetitions) {
    duration.push_back(rep.duration_s);
    total.push_back(rep.total_j());
    pkg.push_back(rep.total_pkg_j());
    dram.push_back(rep.total_dram_j());
  }
  JobAggregate agg;
  agg.duration = compute_stats(duration);
  agg.total_j = compute_stats(total);
  agg.pkg_j = compute_stats(pkg);
  agg.dram_j = compute_stats(dram);
  agg.power_w =
      agg.duration.mean > 0.0 ? agg.total_j.mean / agg.duration.mean : 0.0;
  for (const RepetitionRecord& rep : record.repetitions) {
    agg.worst_residual = std::max(agg.worst_residual, rep.residual);
  }
  return agg;
}

/// The leading spec cells of a CSV row: tier, machine and algorithm, the
/// optional columns, then the always-keyed fields.
std::vector<std::string> spec_cells(const JobSpec& spec,
                                    const OptionalColumns& optional) {
  std::vector<std::string> cells = {to_string(spec.tier), spec.machine,
                                    algorithm_token(spec.algorithm)};
  for (const Axis* axis : optional.axes) cells.push_back(axis->cell(spec));
  cells.insert(cells.end(),
               {std::to_string(spec.n), std::to_string(spec.ranks),
                layout_token(spec.layout), std::to_string(spec.nb),
                std::to_string(spec.seed), format_fixed(spec.power_cap_w, 1),
                std::to_string(spec.repetitions)});
  return cells;
}

/// Whether a record carries cg results: jobs with a sparse matrix.
bool has_cg_results(const JobRecord& record) {
  return find_axis("matrix")->applies_to(record.spec.algorithm);
}

/// First-repetition iteration count — CG is deterministic, so every
/// repetition of a job reports the same value.
int record_cg_iters(const JobRecord& record) {
  return record.repetitions.empty() ? 0 : record.repetitions.front().cg_iters;
}

std::size_t record_nnz(const JobRecord& record) {
  return record.repetitions.empty() ? 0 : record.repetitions.front().nnz;
}

std::uint64_t record_halo_msgs(const JobRecord& record) {
  return record.repetitions.empty() ? 0
                                    : record.repetitions.front().halo_messages;
}

std::uint64_t record_halo_bytes(const JobRecord& record) {
  return record.repetitions.empty() ? 0
                                    : record.repetitions.front().halo_bytes;
}

}  // namespace

std::vector<JobRecord> collect_records(std::span<const JobSpec> specs,
                                       const ResultStore& store,
                                       std::size_t* missing) {
  std::vector<JobRecord> records;
  std::size_t absent = 0;
  for (const JobSpec& spec : specs) {
    const std::string key = spec.key();
    if (store.contains(key)) {
      records.push_back(store.lookup(key));
    } else {
      ++absent;
    }
  }
  if (missing != nullptr) *missing = absent;
  return records;
}

void write_report_csv(std::ostream& os, std::span<const JobRecord> records) {
  // Reports without mixed or cg jobs keep their historical layouts byte for
  // byte: the optional columns follow the algorithm, and the cg result
  // columns ride on the matrix column.
  const OptionalColumns optional = optional_columns(records);
  const bool cg_results = optional.has("matrix");
  CsvWriter csv(os);
  std::vector<std::string> header = {"tier", "machine", "algorithm"};
  for (const Axis* axis : optional.axes) header.push_back(axis->name);
  header.insert(header.end(),
                {"n", "ranks", "layout", "nb", "seed", "power_cap_w", "reps",
                 "duration_mean_s", "duration_stddev_s", "duration_ci95_s",
                 "duration_min_s", "duration_max_s", "total_mean_j",
                 "total_stddev_j", "total_ci95_j", "pkg_mean_j", "dram_mean_j",
                 "power_mean_w", "residual_worst"});
  if (cg_results) {
    header.insert(header.end(), {"cg_iters", "nnz", "halo_msgs", "halo_bytes"});
  }
  csv.write_row(header);
  for (const JobRecord& record : records) {
    const JobAggregate agg = aggregate(record);
    std::vector<std::string> row = spec_cells(record.spec, optional);
    row.push_back(format_fixed(agg.duration.mean, 9));
    row.push_back(format_fixed(agg.duration.stddev, 9));
    row.push_back(format_fixed(agg.duration.ci95_half, 9));
    row.push_back(format_fixed(agg.duration.min, 9));
    row.push_back(format_fixed(agg.duration.max, 9));
    row.push_back(format_fixed(agg.total_j.mean, 6));
    row.push_back(format_fixed(agg.total_j.stddev, 6));
    row.push_back(format_fixed(agg.total_j.ci95_half, 6));
    row.push_back(format_fixed(agg.pkg_j.mean, 6));
    row.push_back(format_fixed(agg.dram_j.mean, 6));
    row.push_back(format_fixed(agg.power_w, 3));
    row.push_back(format_fixed(agg.worst_residual, 18));
    if (cg_results) {
      const bool has = has_cg_results(record);
      row.push_back(has ? std::to_string(record_cg_iters(record)) : "0");
      row.push_back(has ? std::to_string(record_nnz(record)) : "0");
      row.push_back(std::to_string(record_halo_msgs(record)));
      row.push_back(std::to_string(record_halo_bytes(record)));
    }
    csv.write_row(row);
  }
}

void write_report_markdown(std::ostream& os,
                           std::span<const JobRecord> records) {
  const OptionalColumns optional = optional_columns(records);
  const bool cg_results = optional.has("matrix");
  os << "| tier | algorithm |";
  for (const Axis* axis : optional.axes) os << " " << axis->name << " |";
  os << " n | ranks | layout | reps | duration | energy | power | "
        "worst residual |"
     << (cg_results ? " iters | nnz | halo msgs | halo bytes |" : "") << "\n";
  os << "|---|---|";
  for (std::size_t i = 0; i < optional.axes.size(); ++i) os << "---|";
  os << "---|---|---|---|---|---|---|---|"
     << (cg_results ? "---|---|---|---|" : "") << "\n";
  for (const JobRecord& record : records) {
    const JobAggregate agg = aggregate(record);
    os << "| " << to_string(record.spec.tier) << " | "
       << algorithm_token(record.spec.algorithm) << " | ";
    for (const Axis* axis : optional.axes) {
      os << axis->cell(record.spec) << " | ";
    }
    os << record.spec.n
       << " | " << record.spec.ranks << " | "
       << layout_token(record.spec.layout) << " | "
       << record.spec.repetitions << " | "
       << format_duration(agg.duration.mean);
    if (agg.duration.ci95_half > 0.0) {
      os << " ± " << format_duration(agg.duration.ci95_half);
    }
    os << " | " << format_energy(agg.total_j.mean);
    if (agg.total_j.ci95_half > 0.0) {
      os << " ± " << format_energy(agg.total_j.ci95_half);
    }
    os << " | " << format_power(agg.power_w) << " | "
       << format_fixed(agg.worst_residual * 1e15, 2) << "e-15 |";
    if (cg_results) {
      if (has_cg_results(record)) {
        os << " " << record_cg_iters(record) << " | " << record_nnz(record)
           << " | " << record_halo_msgs(record) << " | "
           << record_halo_bytes(record) << " |";
      } else {
        os << " - | - | - | - |";
      }
    }
    os << "\n";
  }
}

void print_report_table(std::ostream& os,
                        std::span<const JobRecord> records) {
  const OptionalColumns optional = optional_columns(records);
  const bool cg_results = optional.has("matrix");
  std::vector<std::string> header = {"tier", "algorithm"};
  for (const Axis* axis : optional.axes) header.push_back(axis->name);
  header.insert(header.end(),
                {"n", "ranks", "layout", "reps", "duration", "ci95",
                 "PKG energy", "DRAM energy", "total", "power", "residual"});
  if (cg_results) {
    header.insert(header.end(), {"iters", "nnz", "halo msgs", "halo bytes"});
  }
  TextTable table(header);
  for (const JobRecord& record : records) {
    const JobAggregate agg = aggregate(record);
    std::vector<std::string> row = {to_string(record.spec.tier),
                                    algorithm_token(record.spec.algorithm)};
    for (const Axis* axis : optional.axes) {
      row.push_back(axis->cell(record.spec));
    }
    row.insert(row.end(),
               {std::to_string(record.spec.n),
                std::to_string(record.spec.ranks),
                layout_token(record.spec.layout),
                std::to_string(record.spec.repetitions),
                format_duration(agg.duration.mean),
                agg.duration.ci95_half > 0.0
                    ? format_duration(agg.duration.ci95_half)
                    : std::string("-"),
                format_energy(agg.pkg_j.mean), format_energy(agg.dram_j.mean),
                format_energy(agg.total_j.mean), format_power(agg.power_w),
                format_fixed(agg.worst_residual * 1e15, 2) + "e-15"});
    if (cg_results) {
      const bool has = has_cg_results(record);
      row.push_back(has ? std::to_string(record_cg_iters(record)) : "-");
      row.push_back(has ? std::to_string(record_nnz(record)) : "-");
      row.push_back(has ? std::to_string(record_halo_msgs(record)) : "-");
      row.push_back(has ? std::to_string(record_halo_bytes(record)) : "-");
    }
    table.add_row(row);
  }
  table.print(os);
}

}  // namespace plin::batch
