#include "batch/record.hpp"

#include "support/error.hpp"

namespace plin::batch {

json::Value to_json(const JobRecord& record) {
  // The cg counters are written for cg jobs only, so dense-only stores stay
  // byte-stable across versions (the spec codec keeps the same rule).
  const bool cg = record.spec.algorithm == perfsim::Algorithm::kCg;
  json::Array reps;
  reps.reserve(record.repetitions.size());
  for (const RepetitionRecord& rep : record.repetitions) {
    json::Value r = json::make_object();
    r.set("duration_s", rep.duration_s);
    r.set("pkg0_j", rep.pkg_j[0]);
    r.set("pkg1_j", rep.pkg_j[1]);
    r.set("dram0_j", rep.dram_j[0]);
    r.set("dram1_j", rep.dram_j[1]);
    r.set("residual", rep.residual);
    r.set("host_s", rep.host_s);
    if (cg) {
      r.set("cg_iters", rep.cg_iters);
      r.set("nnz", static_cast<double>(rep.nnz));
      r.set("halo_msgs", static_cast<double>(rep.halo_messages));
      r.set("halo_bytes", static_cast<double>(rep.halo_bytes));
    }
    reps.push_back(std::move(r));
  }

  json::Value root = json::make_object();
  root.set("key", record.key());
  root.set("spec", spec_to_json(record.spec));
  root.set("reps", json::Value(std::move(reps)));
  return root;
}

JobRecord record_from_json(const json::Value& value) {
  JobRecord record;
  record.spec = spec_from_json(value.at("spec"));

  for (const json::Value& r : value.at("reps").as_array()) {
    RepetitionRecord rep;
    rep.duration_s = r.at("duration_s").as_number();
    rep.pkg_j[0] = r.at("pkg0_j").as_number();
    rep.pkg_j[1] = r.at("pkg1_j").as_number();
    rep.dram_j[0] = r.at("dram0_j").as_number();
    rep.dram_j[1] = r.at("dram1_j").as_number();
    rep.residual = r.at("residual").as_number();
    rep.host_s = r.at("host_s").as_number();
    if (const json::Value* iters = r.find("cg_iters")) {
      rep.cg_iters = json::as_integer<int>(*iters);
    }
    if (const json::Value* nnz = r.find("nnz")) {
      rep.nnz = json::as_integer<std::size_t>(*nnz);
    }
    if (const json::Value* msgs = r.find("halo_msgs")) {
      rep.halo_messages = json::as_integer<std::uint64_t>(*msgs);
    }
    if (const json::Value* bytes = r.find("halo_bytes")) {
      rep.halo_bytes = json::as_integer<std::uint64_t>(*bytes);
    }
    record.repetitions.push_back(rep);
  }

  // The stored key column is advisory; the spec is authoritative. A
  // mismatch means the record was written by an incompatible version.
  const std::string stored_key = value.at("key").as_string();
  PLIN_CHECK_MSG(stored_key == record.key(),
                 "store record key does not match its spec (stale format?)");
  return record;
}

}  // namespace plin::batch
