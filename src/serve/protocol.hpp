// Wire protocol of the powerlin serve daemon (docs/serve.md).
//
// Transport: newline-delimited JSON over a local AF_UNIX stream socket —
// one request object per line, one response object per line, in order.
// Framing is byte-trivial on purpose: any language with a JSON library and
// a socket can drive the daemon, and the crash-safe layers below never
// depend on partial-line state.
//
// Requests:
//   {"op":"ping"}
//   {"op":"submit","tenant":"fig5","wait":true,"spec":{...}}
//   {"op":"wait","key":"<16-hex>"}
//   {"op":"stats"}
//   {"op":"drain"}
// Every request may carry a free-form "tag" string which the matching
// response echoes (client-side correlation). The "spec" object is the
// result store's spec format (batch::spec_from_json): absent fields take
// the JobSpec defaults, and unknown fields or out-of-range values are
// rejected.
//
// Responses always carry "ok" (bool) and echo "op" (+"tag"); submit/wait
// add "key", "status" and, for completed jobs, the stored record.
#pragma once

#include <string>

#include "batch/spec.hpp"
#include "support/json.hpp"

namespace plin::serve {

enum class Op { kPing, kSubmit, kWait, kStats, kDrain };

const char* to_string(Op op);

/// One decoded request line.
struct Request {
  Op op = Op::kPing;
  std::string tenant = "default";  // submit: fair-share accounting bucket
  std::string tag;                 // echoed verbatim in the response
  bool wait = false;               // submit: defer response to completion
  batch::JobSpec spec;             // submit only
  std::string key;                 // wait only
};

/// Parses one request line; throws InvalidArgument with a precise message
/// on malformed JSON, unknown ops, or bad specs.
Request parse_request(const std::string& line);

/// Response constructors (serialized by the caller; one line each).
json::Value make_response(const Request& request, bool ok);
json::Value error_response(const std::string& message,
                           const std::string& tag = {});

}  // namespace plin::serve
