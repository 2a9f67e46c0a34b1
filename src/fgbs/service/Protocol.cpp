//===- fgbs/service/Protocol.cpp - LDJSON request/response protocol -------===//

#include "fgbs/service/Protocol.h"

#include "fgbs/obs/Trace.h"

#include <cmath>

using namespace fgbs;
using namespace fgbs::service;

namespace {

obs::JsonValue errorResponse(const char *Category, std::string Message) {
  FGBS_COUNTER_ADD("service.protocol.errors", 1);
  obs::JsonValue R = obs::JsonValue::object();
  R.set("ok", obs::JsonValue(false));
  R.set("error", obs::JsonValue(Category));
  R.set("message", obs::JsonValue(std::move(Message)));
  return R;
}

obs::JsonValue okResponse() {
  obs::JsonValue R = obs::JsonValue::object();
  R.set("ok", obs::JsonValue(true));
  return R;
}

/// Extracts a full-catalog feature vector from \p Request["features"].
/// Returns false with \p Error filled on any shape/value problem.
bool parseFeatures(const obs::JsonValue &Request, std::size_t Expected,
                   std::vector<double> &Out, std::string &Error) {
  const obs::JsonValue *Features = Request.find("features");
  if (!Features || Features->kind() != obs::JsonValue::Kind::Array) {
    Error = "request needs a \"features\" array";
    return false;
  }
  if (Features->elements().size() != Expected) {
    Error = "\"features\" must carry " + std::to_string(Expected) +
            " entries, got " + std::to_string(Features->elements().size());
    return false;
  }
  Out.clear();
  Out.reserve(Expected);
  for (const obs::JsonValue &V : Features->elements()) {
    if (!V.isNumber() || !std::isfinite(V.number())) {
      Error = "\"features\" entries must be finite numbers";
      return false;
    }
    Out.push_back(V.number());
  }
  return true;
}

/// Extracts a positive "ref_seconds" member.
bool parseRefSeconds(const obs::JsonValue &Request, double &Out,
                     std::string &Error) {
  const obs::JsonValue *Ref = Request.find("ref_seconds");
  if (!Ref || !Ref->isNumber() || !std::isfinite(Ref->number()) ||
      Ref->number() <= 0.0) {
    Error = "request needs a positive \"ref_seconds\" number";
    return false;
  }
  Out = Ref->number();
  return true;
}

obs::JsonValue classifyToJson(const ClassifyResult &C) {
  obs::JsonValue R = okResponse();
  R.set("cluster", obs::JsonValue(static_cast<double>(C.Cluster)));
  R.set("distance", obs::JsonValue(C.Distance));
  R.set("representative",
        obs::JsonValue(static_cast<double>(C.Representative)));
  R.set("representative_name", obs::JsonValue(C.RepresentativeName));
  return R;
}

} // namespace

obs::JsonValue QueryEngine::handle(const obs::JsonValue &Request) const {
  FGBS_SCOPED_TIMER("service.request");
  FGBS_COUNTER_ADD("service.requests", 1);

  if (!Request.isObject())
    return errorResponse("bad_request", "request must be a JSON object");
  const obs::JsonValue *Op = Request.find("op");
  if (!Op || Op->kind() != obs::JsonValue::Kind::String)
    return errorResponse("bad_request", "request needs an \"op\" string");

  const ModelSnapshot &S = Svc.model();
  std::string Error;

  if (Op->string() == "info") {
    obs::JsonValue R = okResponse();
    R.set("schema", obs::JsonValue("fgbs.model.v1"));
    R.set("suite", obs::JsonValue(S.SuiteName));
    R.set("reference", obs::JsonValue(S.ReferenceName));
    R.set("features", obs::JsonValue(static_cast<double>(S.numFeatures())));
    R.set("selected_features",
          obs::JsonValue(static_cast<double>(S.numSelectedFeatures())));
    R.set("clusters", obs::JsonValue(static_cast<double>(S.numClusters())));
    R.set("codelets", obs::JsonValue(static_cast<double>(S.numCodelets())));
    obs::JsonValue Targets = obs::JsonValue::array();
    for (const SnapshotTarget &T : S.Targets)
      Targets.push(obs::JsonValue(T.MachineName));
    R.set("targets", std::move(Targets));
    return R;
  }

  if (Op->string() == "classify") {
    std::vector<double> Features;
    if (!parseFeatures(Request, S.numFeatures(), Features, Error))
      return errorResponse("bad_request", Error);
    return classifyToJson(Svc.classify(Features));
  }

  if (Op->string() == "predict") {
    QueryRequest Q;
    if (!parseFeatures(Request, S.numFeatures(), Q.Features, Error) ||
        !parseRefSeconds(Request, Q.ReferenceSeconds, Error))
      return errorResponse("bad_request", Error);
    PredictResult P = Svc.predictTimes(Q);
    obs::JsonValue R = classifyToJson(P.Classified);
    obs::JsonValue Predicted = obs::JsonValue::object();
    obs::JsonValue Speedups = obs::JsonValue::object();
    for (std::size_t T = 0; T < S.Targets.size(); ++T) {
      Predicted.set(S.Targets[T].MachineName,
                    obs::JsonValue(P.PredictedSeconds[T]));
      Speedups.set(S.Targets[T].MachineName, obs::JsonValue(P.Speedups[T]));
    }
    R.set("predicted_seconds", std::move(Predicted));
    R.set("speedups", std::move(Speedups));
    return R;
  }

  if (Op->string() == "rank") {
    const obs::JsonValue *Queries = Request.find("queries");
    if (!Queries || Queries->kind() != obs::JsonValue::Kind::Array ||
        Queries->elements().empty())
      return errorResponse("bad_request",
                           "request needs a non-empty \"queries\" array");
    std::vector<QueryRequest> Batch;
    Batch.reserve(Queries->elements().size());
    for (const obs::JsonValue &Entry : Queries->elements()) {
      QueryRequest Q;
      if (!Entry.isObject() ||
          !parseFeatures(Entry, S.numFeatures(), Q.Features, Error) ||
          !parseRefSeconds(Entry, Q.ReferenceSeconds, Error))
        return errorResponse("bad_request",
                             Error.empty() ? "queries entries must be objects"
                                           : Error);
      Batch.push_back(std::move(Q));
    }
    std::vector<MachineRank> Ranking = Svc.rankMachines(Batch);
    obs::JsonValue R = okResponse();
    obs::JsonValue Rows = obs::JsonValue::array();
    for (const MachineRank &Rank : Ranking) {
      obs::JsonValue Row = obs::JsonValue::object();
      Row.set("machine", obs::JsonValue(Rank.MachineName));
      Row.set("geomean_speedup", obs::JsonValue(Rank.GeomeanSpeedup));
      Rows.push(std::move(Row));
    }
    R.set("ranking", std::move(Rows));
    R.set("best", obs::JsonValue(Ranking.front().MachineName));
    return R;
  }

  return errorResponse("unknown_op", "unsupported op \"" + Op->string() +
                                         "\"");
}

std::string QueryEngine::handleLine(const std::string &Line) const {
  std::optional<obs::JsonValue> Request = obs::parseJson(Line);
  obs::JsonValue Response =
      Request ? handle(*Request)
              : errorResponse("bad_json", "request line is not valid JSON");
  return obs::writeJson(Response);
}
