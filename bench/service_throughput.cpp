//===- bench/service_throughput.cpp - Query service microbenchmarks -------===//
//
// Google-benchmark microbenchmarks of the online service path: snapshot
// serialize/parse, single classify/predict queries and whole request
// lines through the JSON protocol.  Numbers are checked into
// BENCH_service.json for the CI perf gate.
//
//===----------------------------------------------------------------------===//

#include "fgbs/obs/RunReport.h"
#include "fgbs/service/Protocol.h"
#include "fgbs/service/SelectionService.h"
#include "fgbs/service/Snapshot.h"
#include "fgbs/suites/Suites.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/Rng.h"

#include <benchmark/benchmark.h>

using namespace fgbs;
using namespace fgbs::service;

namespace {

/// One trained synthetic model, built on first use and shared by every
/// benchmark (training cost must not pollute the timed regions).
const ModelSnapshot &sharedModel() {
  static const ModelSnapshot Model = [] {
    static Suite S = makeSyntheticSuite({});
    static MeasurementDatabase Db(S, makeNehalem(), paperTargets());
    PipelineResult R = Pipeline(Db, PipelineConfig()).run();
    return buildSnapshot(Db, R);
  }();
  return Model;
}

const SelectionService &sharedService() {
  static const SelectionService Svc{ModelSnapshot(sharedModel())};
  return Svc;
}

/// Deterministic query load: plausible feature vectors spread across the
/// feature space, with positive reference times.
std::vector<QueryRequest> makeQueries(std::size_t N) {
  Rng R(4242);
  std::vector<QueryRequest> Queries(N);
  for (QueryRequest &Q : Queries) {
    Q.Features.resize(sharedModel().numFeatures());
    for (double &V : Q.Features)
      V = 8.0 * R.normal();
    Q.ReferenceSeconds = 1e-4 + 1e-3 * R.uniform();
  }
  return Queries;
}

void BM_SnapshotSerialize(benchmark::State &State) {
  const ModelSnapshot &S = sharedModel();
  for (auto _ : State)
    benchmark::DoNotOptimize(serializeSnapshot(S));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SnapshotSerialize);

void BM_SnapshotParse(benchmark::State &State) {
  std::string Bytes = serializeSnapshot(sharedModel());
  for (auto _ : State) {
    SnapshotLoadResult R = parseSnapshot(Bytes);
    benchmark::DoNotOptimize(R);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Bytes.size()));
}
BENCHMARK(BM_SnapshotParse);

void BM_ServiceClassify(benchmark::State &State) {
  const SelectionService &Svc = sharedService();
  std::vector<QueryRequest> Queries = makeQueries(64);
  std::size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Svc.classify(Queries[I].Features));
    I = (I + 1) % Queries.size();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ServiceClassify);

void BM_ServicePredict(benchmark::State &State) {
  const SelectionService &Svc = sharedService();
  std::vector<QueryRequest> Queries = makeQueries(64);
  std::size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Svc.predictTimes(Queries[I]));
    I = (I + 1) % Queries.size();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ServicePredict);

/// Request lines the way a client sends them: classify carries the
/// features, predict adds ref_seconds, rank sends a batch of four such
/// entries.
std::vector<std::string> makeQueryLines(const std::string &Op) {
  const std::size_t Batch = Op == "rank" ? 4 : 1;
  std::vector<QueryRequest> Queries = makeQueries(64 * Batch);
  auto Entry = [&](const QueryRequest &Q) {
    obs::JsonValue E = obs::JsonValue::object();
    obs::JsonValue Features = obs::JsonValue::array();
    for (double V : Q.Features)
      Features.push(obs::JsonValue(V));
    E.set("features", std::move(Features));
    if (Op != "classify")
      E.set("ref_seconds", obs::JsonValue(Q.ReferenceSeconds));
    return E;
  };
  std::vector<std::string> Lines;
  for (std::size_t I = 0; I < Queries.size(); I += Batch) {
    obs::JsonValue Request = obs::JsonValue::object();
    if (Batch == 1) {
      Request = Entry(Queries[I]);
    } else {
      obs::JsonValue Entries = obs::JsonValue::array();
      for (std::size_t B = I; B < I + Batch; ++B)
        Entries.push(Entry(Queries[B]));
      Request.set("queries", std::move(Entries));
    }
    Request.set("op", obs::JsonValue(Op));
    Lines.push_back(obs::writeJson(Request));
  }
  return Lines;
}

/// One request line through QueryEngine::handleLine end to end: parse,
/// dispatch, answer, write.
void BM_QueryLine(benchmark::State &State, const std::string &Op) {
  const QueryEngine Engine(sharedService());
  const std::vector<std::string> Lines = makeQueryLines(Op);
  std::size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Engine.handleLine(Lines[I]));
    I = (I + 1) % Lines.size();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK_CAPTURE(BM_QueryLine, classify, std::string("classify"));
BENCHMARK_CAPTURE(BM_QueryLine, predict, std::string("predict"));
BENCHMARK_CAPTURE(BM_QueryLine, rank, std::string("rank"));

/// Console output as usual, plus every per-iteration result recorded
/// into the telemetry session so the run exports as fgbs.run.v1 (the
/// schema bench/BENCH_service.json and the CI perf gate consume).
class SessionReporter : public benchmark::ConsoleReporter {
public:
  explicit SessionReporter(obs::Session &Out) : Out(Out) {}

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports)
      if (R.run_type == Run::RT_Iteration && !R.error_occurred)
        Out.recordBenchmark(R.benchmark_name(), R.GetAdjustedRealTime());
    ConsoleReporter::ReportRuns(Reports);
  }

private:
  obs::Session &Out;
};

} // namespace

int main(int argc, char **argv) {
  // Honours FGBS_RUN_JSON / FGBS_TRACE_JSON / FGBS_TELEMETRY; with none
  // of them set this is exactly BENCHMARK_MAIN().
  obs::Session Run("service_throughput");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  SessionReporter Reporter(Run);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return 0;
}
