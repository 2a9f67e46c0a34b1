//===- fgbs/service/Protocol.h - LDJSON request/response protocol *- C++ -*===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the query service: line-delimited JSON requests
/// in, line-delimited JSON responses out (tools/fgbs_query is a thin
/// stdin/stdout loop around this; tests drive it directly).
///
/// Requests (one JSON object per line, selected by "op"):
///
///   {"op": "info"}
///   {"op": "classify", "features": [f0, ..., f75]}
///   {"op": "predict",  "features": [...], "ref_seconds": s}
///   {"op": "rank", "queries": [{"features": [...], "ref_seconds": s}, ...]}
///
/// Every response is one JSON object with "ok": true plus op-specific
/// members, or {"ok": false, "error": "<category>", "message": "..."}.
/// Responses are written with sorted keys and shortest-round-trip
/// numbers, so a response stream is byte-deterministic for a given
/// snapshot — the CI golden-replay test relies on this.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SERVICE_PROTOCOL_H
#define FGBS_SERVICE_PROTOCOL_H

#include "fgbs/obs/Json.h"
#include "fgbs/service/SelectionService.h"

#include <string>

namespace fgbs {
namespace service {

/// Stateless JSON dispatcher over one SelectionService.  Thread-safe for
/// concurrent callers: the service is immutable and the engine holds
/// nothing else.
class QueryEngine {
public:
  /// \p Svc must outlive the engine.
  explicit QueryEngine(const SelectionService &Svc) : Svc(Svc) {}

  /// Dispatches one parsed request object.
  obs::JsonValue handle(const obs::JsonValue &Request) const;

  /// Parses one request line and dispatches it; malformed JSON yields
  /// an error response, never a throw.  Returns one line WITHOUT the
  /// trailing newline.
  std::string handleLine(const std::string &Line) const;

private:
  const SelectionService &Svc;
};

} // namespace service
} // namespace fgbs

#endif // FGBS_SERVICE_PROTOCOL_H
