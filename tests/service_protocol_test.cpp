//===- tests/service_protocol_test.cpp - LDJSON query protocol ------------===//

#include "fgbs/service/Protocol.h"

#include "fgbs/suites/Suites.h"
#include "fgbs/suites/Synthetic.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>

using namespace fgbs;
using namespace fgbs::service;

namespace {

//===----------------------------------------------------------------------===//
// A small deterministic model served once per suite
//===----------------------------------------------------------------------===//

class ProtocolTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    TheSuite = new Suite(makeSyntheticSuite({}));
    Db = new MeasurementDatabase(*TheSuite, makeNehalem(), paperTargets());
    Result = new PipelineResult(Pipeline(*Db, PipelineConfig()).run());
    Svc = new SelectionService(buildSnapshot(*Db, *Result));
    Engine = new QueryEngine(*Svc);
  }
  static void TearDownTestSuite() {
    delete Engine;
    delete Svc;
    delete Result;
    delete Db;
    delete TheSuite;
    Engine = nullptr;
    Svc = nullptr;
    Result = nullptr;
    Db = nullptr;
    TheSuite = nullptr;
  }

  /// A well-formed request for kept codelet \p I, with op and optional
  /// ref_seconds filled by the caller.
  static obs::JsonValue requestFor(std::size_t I, const char *Op,
                                   bool WithRef) {
    const CodeletProfile &P = Db->profile(Result->Kept[I]);
    obs::JsonValue R = obs::JsonValue::object();
    R.set("op", obs::JsonValue(Op));
    obs::JsonValue Features = obs::JsonValue::array();
    for (double V : P.Features)
      Features.push(obs::JsonValue(V));
    R.set("features", std::move(Features));
    if (WithRef)
      R.set("ref_seconds", obs::JsonValue(P.InApp.MeasuredSeconds));
    return R;
  }

  static Suite *TheSuite;
  static MeasurementDatabase *Db;
  static PipelineResult *Result;
  static SelectionService *Svc;
  static QueryEngine *Engine;
};

Suite *ProtocolTest::TheSuite = nullptr;
MeasurementDatabase *ProtocolTest::Db = nullptr;
PipelineResult *ProtocolTest::Result = nullptr;
SelectionService *ProtocolTest::Svc = nullptr;
QueryEngine *ProtocolTest::Engine = nullptr;

bool okOf(const obs::JsonValue &R) {
  const obs::JsonValue *Ok = R.find("ok");
  return Ok && Ok->kind() == obs::JsonValue::Kind::Bool && Ok->boolean();
}

std::string errorOf(const obs::JsonValue &R) {
  const obs::JsonValue *E = R.find("error");
  return E && E->kind() == obs::JsonValue::Kind::String ? E->string() : "";
}

} // namespace

//===----------------------------------------------------------------------===//
// Happy paths
//===----------------------------------------------------------------------===//

TEST_F(ProtocolTest, InfoDescribesTheModel) {
  obs::JsonValue Request = obs::JsonValue::object();
  Request.set("op", obs::JsonValue("info"));
  obs::JsonValue R = Engine->handle(Request);
  ASSERT_TRUE(okOf(R));
  EXPECT_EQ(R.find("schema")->string(), "fgbs.model.v1");
  EXPECT_EQ(R.find("suite")->string(), Svc->model().SuiteName);
  EXPECT_EQ(R.find("reference")->string(), Svc->model().ReferenceName);
  EXPECT_EQ(R.find("features")->number(),
            static_cast<double>(Svc->model().numFeatures()));
  EXPECT_EQ(R.find("clusters")->number(),
            static_cast<double>(Svc->model().numClusters()));
  ASSERT_EQ(R.find("targets")->elements().size(), Svc->model().numTargets());
}

TEST_F(ProtocolTest, ClassifyMatchesTheServiceApi) {
  for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
    obs::JsonValue R = Engine->handle(requestFor(I, "classify", false));
    ASSERT_TRUE(okOf(R));
    ClassifyResult C = Svc->classify(Db->profile(Result->Kept[I]).Features);
    EXPECT_EQ(R.find("cluster")->number(), static_cast<double>(C.Cluster));
    EXPECT_EQ(R.find("representative_name")->string(), C.RepresentativeName);
    EXPECT_DOUBLE_EQ(R.find("distance")->number(), C.Distance);
  }
}

TEST_F(ProtocolTest, PredictCarriesPerTargetTimes) {
  obs::JsonValue R = Engine->handle(requestFor(0, "predict", true));
  ASSERT_TRUE(okOf(R));

  QueryRequest Q;
  Q.Features = Db->profile(Result->Kept[0]).Features;
  Q.ReferenceSeconds = Db->profile(Result->Kept[0]).InApp.MeasuredSeconds;
  PredictResult P = Svc->predictTimes(Q);

  const obs::JsonValue *Predicted = R.find("predicted_seconds");
  const obs::JsonValue *Speedups = R.find("speedups");
  ASSERT_NE(Predicted, nullptr);
  ASSERT_NE(Speedups, nullptr);
  for (std::size_t T = 0; T < Svc->model().numTargets(); ++T) {
    const std::string &Name = Svc->model().Targets[T].MachineName;
    ASSERT_NE(Predicted->find(Name), nullptr) << Name;
    EXPECT_DOUBLE_EQ(Predicted->find(Name)->number(), P.PredictedSeconds[T]);
    EXPECT_DOUBLE_EQ(Speedups->find(Name)->number(), P.Speedups[T]);
  }
}

TEST_F(ProtocolTest, RankReturnsBestFirst) {
  obs::JsonValue Request = obs::JsonValue::object();
  Request.set("op", obs::JsonValue("rank"));
  obs::JsonValue Queries = obs::JsonValue::array();
  for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
    obs::JsonValue Q = requestFor(I, "rank", true);
    Q.set("op", obs::JsonValue()); // harmless extra member
    Queries.push(std::move(Q));
  }
  Request.set("queries", std::move(Queries));

  obs::JsonValue R = Engine->handle(Request);
  ASSERT_TRUE(okOf(R));
  const obs::JsonValue *Rows = R.find("ranking");
  ASSERT_NE(Rows, nullptr);
  ASSERT_EQ(Rows->elements().size(), Svc->model().numTargets());
  EXPECT_EQ(R.find("best")->string(),
            Rows->elements().front().find("machine")->string());
  for (std::size_t I = 1; I < Rows->elements().size(); ++I)
    EXPECT_GE(Rows->elements()[I - 1].find("geomean_speedup")->number(),
              Rows->elements()[I].find("geomean_speedup")->number());
}

TEST_F(ProtocolTest, HandleLineRoundTripsThroughText) {
  std::string Response = Engine->handleLine("{\"op\":\"info\"}");
  std::optional<obs::JsonValue> Parsed = obs::parseJson(Response);
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_TRUE(okOf(*Parsed));

  // writeJson emits sorted keys and shortest-round-trip numbers, so the
  // same request always yields byte-identical responses — the property
  // the CI golden-file test leans on.
  EXPECT_EQ(Response, Engine->handleLine("{\"op\":\"info\"}"));
}

//===----------------------------------------------------------------------===//
// Error paths: every malformed request gets a typed, structured answer
//===----------------------------------------------------------------------===//

TEST_F(ProtocolTest, MalformedRequestsGetTypedErrors) {
  // Not JSON at all.
  obs::JsonValue R = *obs::parseJson(Engine->handleLine("not json"));
  EXPECT_FALSE(okOf(R));
  EXPECT_EQ(errorOf(R), "bad_json");

  // Not an object.
  R = *obs::parseJson(Engine->handleLine("[1,2,3]"));
  EXPECT_EQ(errorOf(R), "bad_request");

  // Missing op.
  R = *obs::parseJson(Engine->handleLine("{}"));
  EXPECT_EQ(errorOf(R), "bad_request");

  // Unknown op.
  R = *obs::parseJson(Engine->handleLine("{\"op\":\"selfdestruct\"}"));
  EXPECT_EQ(errorOf(R), "unknown_op");

  // classify without features.
  R = *obs::parseJson(Engine->handleLine("{\"op\":\"classify\"}"));
  EXPECT_EQ(errorOf(R), "bad_request");

  // classify with the wrong arity.
  R = *obs::parseJson(
      Engine->handleLine("{\"op\":\"classify\",\"features\":[1,2,3]}"));
  EXPECT_EQ(errorOf(R), "bad_request");
  EXPECT_NE(R.find("message")->string().find("76"), std::string::npos);

  // predict with features but a bad ref_seconds.
  obs::JsonValue Bad = requestFor(0, "predict", false);
  Bad.set("ref_seconds", obs::JsonValue(-1.0));
  R = Engine->handle(Bad);
  EXPECT_EQ(errorOf(R), "bad_request");

  // rank with an empty queries array.
  R = *obs::parseJson(Engine->handleLine("{\"op\":\"rank\",\"queries\":[]}"));
  EXPECT_EQ(errorOf(R), "bad_request");

  // rank with a non-object entry.
  R = *obs::parseJson(
      Engine->handleLine("{\"op\":\"rank\",\"queries\":[42]}"));
  EXPECT_EQ(errorOf(R), "bad_request");
}

TEST_F(ProtocolTest, NonFiniteFeaturesAreRejected) {
  obs::JsonValue Request = requestFor(0, "classify", false);
  // JSON itself cannot carry NaN, but a hand-built JsonValue can; the
  // engine must still reject it rather than poison the distance math.
  obs::JsonValue Features = obs::JsonValue::array();
  for (std::size_t I = 0; I < Svc->model().numFeatures(); ++I)
    Features.push(obs::JsonValue(std::numeric_limits<double>::quiet_NaN()));
  Request.set("features", std::move(Features));
  obs::JsonValue R = Engine->handle(Request);
  EXPECT_FALSE(okOf(R));
  EXPECT_EQ(errorOf(R), "bad_request");
}

//===----------------------------------------------------------------------===//
// Exact answers: every digit string the protocol prints is locked
//===----------------------------------------------------------------------===//

// `service_e2e_compare` checks the same replay against
// service_golden.jsonl at a 1e-9 relative tolerance, which survives
// last-digit drift across compilers but cannot see a changed digit
// string.  This test replays the canned queries through handleLine on
// the NR model `fgbs_train --suite nr` trains and compares each answer
// byte for byte.  To re-record after explaining every moved byte:
//   ./build/tools/fgbs_train --suite nr --out nr.fgbs
//   ./build/tools/fgbs_query nr.fgbs --script tests/data/service_queries.jsonl
//       --out tests/data/service_answers_exact.jsonl
TEST(ServiceProtocol, AnswersAreByteExact) {
  Suite S = makeNumericalRecipes();
  MeasurementDatabase Db(S, makeNehalem(), paperTargets());
  SelectionService Svc(buildSnapshot(Db, Pipeline(Db, PipelineConfig()).run()));
  QueryEngine Engine(Svc);

  std::ifstream Queries(FGBS_TEST_DATA_DIR "/service_queries.jsonl");
  std::ifstream Answers(FGBS_TEST_DATA_DIR "/service_answers_exact.jsonl");
  ASSERT_TRUE(Queries && Answers);
  std::string Query, Expected;
  unsigned Line = 0;
  while (std::getline(Queries, Query)) {
    ++Line;
    ASSERT_TRUE(std::getline(Answers, Expected)) << "no answer for line "
                                                 << Line;
    EXPECT_EQ(Engine.handleLine(Query), Expected) << "line " << Line;
  }
  EXPECT_FALSE(std::getline(Answers, Expected)) << "more answers than queries";
  EXPECT_EQ(Line, 8u);
}
