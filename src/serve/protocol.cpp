#include "serve/protocol.hpp"

#include <utility>

#include "support/error.hpp"

namespace plin::serve {

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kSubmit: return "submit";
    case Op::kWait: return "wait";
    case Op::kStats: return "stats";
    case Op::kDrain: return "drain";
  }
  return "?";
}

namespace {

Op parse_op(const std::string& token) {
  if (token == "ping") return Op::kPing;
  if (token == "submit") return Op::kSubmit;
  if (token == "wait") return Op::kWait;
  if (token == "stats") return Op::kStats;
  if (token == "drain") return Op::kDrain;
  throw InvalidArgument("serve: unknown op '" + token +
                        "' (ping | submit | wait | stats | drain)");
}

}  // namespace

Request parse_request(const std::string& line) {
  const json::Value root = json::parse(line);
  Request request;
  request.op = parse_op(root.at("op").as_string());
  if (const json::Value* tag = root.find("tag")) {
    request.tag = tag->as_string();
  }
  switch (request.op) {
    case Op::kSubmit: {
      if (const json::Value* tenant = root.find("tenant")) {
        request.tenant = tenant->as_string();
        PLIN_CHECK_MSG(!request.tenant.empty(),
                       "serve: tenant must be non-empty");
      }
      if (const json::Value* wait = root.find("wait")) {
        request.wait = wait->as_bool();
      }
      request.spec = batch::spec_from_json(root.at("spec"));
      break;
    }
    case Op::kWait: {
      request.key = root.at("key").as_string();
      PLIN_CHECK_MSG(request.key.size() == 16,
                     "serve: key must be 16 hex digits (JobSpec::key)");
      break;
    }
    case Op::kPing:
    case Op::kStats:
    case Op::kDrain:
      break;
  }
  return request;
}

json::Value make_response(const Request& request, bool ok) {
  json::Value out = json::make_object();
  out.set("ok", ok);
  out.set("op", to_string(request.op));
  if (!request.tag.empty()) out.set("tag", request.tag);
  return out;
}

json::Value error_response(const std::string& message,
                           const std::string& tag) {
  json::Value out = json::make_object();
  out.set("ok", false);
  out.set("error", message);
  if (!tag.empty()) out.set("tag", tag);
  return out;
}

}  // namespace plin::serve
