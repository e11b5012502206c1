// Canonical exports of one run's TraceData (docs/tracing.md):
//
//   - trace.json: Chrome/Perfetto trace_event JSON — one track per rank
//     (grouped under its node's process), slices for phases, collectives,
//     activities and messages, plus a per-node dynamic-power counter track;
//   - summary.json: the three analyses as one machine-readable document;
//   - phases.csv / comm_matrix.csv / critical_path.csv: flat tables.
//
// Every number is formatted with json::format_number and every string is
// escaped through the json serializer, so for a given job spec the bytes
// are identical across worker counts — the property the CI
// trace-diff job and prof_test assert.
#pragma once

#include <string>

#include "prof/analysis.hpp"
#include "support/json.hpp"

namespace plin::prof {

/// The Perfetto/Chrome trace_event document as a string.
std::string perfetto_json(const TraceData& trace);

/// Writes perfetto_json to `path`; throws plin::IoError on failure.
void write_perfetto(const std::string& path, const TraceData& trace);

/// summary.json document built from precomputed analyses.
json::Value summary_json(const TraceData& trace,
                         const EnergyAttribution& energy,
                         const CommMatrix& comm, const CriticalPath& path);

/// Convenience overload: runs the three analyses itself.
json::Value summary_json(const TraceData& trace);

std::string phases_csv(const EnergyAttribution& energy);
std::string comm_matrix_csv(const CommMatrix& comm);
std::string critical_path_csv(const CriticalPath& path);

/// Writes the full bundle (trace.json, summary.json, phases.csv,
/// comm_matrix.csv, critical_path.csv) into `dir`, creating it if needed.
void write_trace_bundle(const std::string& dir, const TraceData& trace);

}  // namespace plin::prof
