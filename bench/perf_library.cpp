//===- bench/perf_library.cpp - Library performance microbenchmarks -------===//
//
// Google-benchmark microbenchmarks of the library's hot paths: the
// trace-driven cache hierarchy, cold sampling of a whole suite, the
// executor, Ward clustering, the elbow
// search, representative selection, the prediction model, feature
// computation, GA generations and one Table 2 fitness evaluation.  These
// guard the costs that make the cluster-count sweeps (Figure 3/7) and the
// GA (Table 2) tractable.
//
//===----------------------------------------------------------------------===//

#include "fgbs/cluster/Hierarchical.h"
#include "fgbs/core/Pipeline.h"
#include "fgbs/dsl/Builder.h"
#include "fgbs/dsl/Text.h"
#include "fgbs/ga/GeneticAlgorithm.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/suites/Suites.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/Rng.h"

#include <benchmark/benchmark.h>

#include <set>

using namespace fgbs;

namespace {

FeatureTable syntheticPoints(std::size_t N, std::size_t Dim) {
  Rng R(99);
  FeatureTable Points(N, std::vector<double>(Dim));
  for (auto &P : Points)
    for (double &V : P)
      V = R.normal();
  return Points;
}

Codelet benchCodelet(std::uint64_t Elems) {
  CodeletBuilder B("perf_triad", "perf");
  unsigned A = B.array("a", Precision::DP, Elems);
  unsigned X = B.array("x", Precision::DP, Elems);
  B.loops(Elems);
  B.stmt(storeTo(B.at(A, StrideClass::Unit),
                 add(B.ld(X, StrideClass::Unit),
                     mul(constant(Precision::DP),
                         B.ld(A, StrideClass::Unit)))));
  return B.take();
}

void BM_CacheHierarchyAccess(benchmark::State &State) {
  Machine M = makeNehalem();
  CacheHierarchy H(M);
  std::uint64_t Addr = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(H.access(Addr));
    Addr += 64;
    Addr &= (64 << 20) - 1;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

void BM_SampleMemoryBehavior(benchmark::State &State) {
  Machine M = makeNehalem();
  std::vector<MemoryStreamDesc> Streams = {
      {8, 8ull << 20, 1, false, 8}, {8, 8ull << 20, 1, true, 8}};
  for (auto _ : State)
    benchmark::DoNotOptimize(sampleMemoryBehavior(Streams, M, 1 << 20));
}
BENCHMARK(BM_SampleMemoryBehavior);

/// A NAS-shaped sample: several streams past the last-level cache, one
/// walking backwards and one five-point stencil -- the shape that makes
/// cold NAS training cost what it does.
void BM_SampleMemoryBehaviorNasShaped(benchmark::State &State) {
  Machine M = makeNehalem();
  std::vector<MemoryStreamDesc> Streams = {{8, 32ull << 20, 1, false, 8},
                                           {8, 32ull << 20, 1, false, 8},
                                           {8, 32ull << 20, 1, true, 8},
                                           {-8, 16ull << 20, 1, false, 8},
                                           {8, 24ull << 20, 5, false, 8}};
  for (auto _ : State)
    benchmark::DoNotOptimize(sampleMemoryBehavior(Streams, M, 1 << 24));
}
BENCHMARK(BM_SampleMemoryBehaviorNasShaped);

/// Every distinct memory trace a database of \p S samples: one per
/// codelet and distinct invocation-group dataset scale.
std::set<MemoryTrace> suiteTraces(const Suite &S) {
  std::set<MemoryTrace> Out;
  for (const Codelet *C : S.allCodelets())
    for (const InvocationGroup &G : C->Invocations)
      Out.insert(memoryTrace(*C, G.DatasetScale));
  return Out;
}

/// Cold sampling of every trace of \p Traces on the four paper machines,
/// through the unmemoized sampler: each trace in one walk for all four
/// machines (Shared), or in four one-machine walks.
void sampleSuite(benchmark::State &State, const std::set<MemoryTrace> &Traces,
                 bool Shared) {
  const std::vector<Machine> Machines = paperMachines();
  std::vector<const Machine *> All;
  for (const Machine &M : Machines)
    All.push_back(&M);
  for (auto _ : State)
    for (const auto &[Streams, Iters] : Traces) {
      if (Shared) {
        benchmark::DoNotOptimize(sampleMemoryBehavior(Streams, All, Iters));
        continue;
      }
      for (const Machine &M : Machines)
        benchmark::DoNotOptimize(sampleMemoryBehavior(Streams, M, Iters));
    }
}

void BM_SampleSuiteNr(benchmark::State &State, bool Shared) {
  static const std::set<MemoryTrace> Traces =
      suiteTraces(makeNumericalRecipes());
  sampleSuite(State, Traces, Shared);
}
BENCHMARK_CAPTURE(BM_SampleSuiteNr, shared, true);
BENCHMARK_CAPTURE(BM_SampleSuiteNr, per_machine, false);

/// NAS: the suite whose miss-heavy traces leave a walk the least to skip.
void BM_SampleSuiteNas(benchmark::State &State, bool Shared) {
  static const std::set<MemoryTrace> Traces = suiteTraces(makeNasSer());
  sampleSuite(State, Traces, Shared);
}
BENCHMARK_CAPTURE(BM_SampleSuiteNas, shared, true);

void BM_ExecutorRun(benchmark::State &State) {
  Codelet C = benchCodelet(1 << 20);
  Machine M = makeNehalem();
  for (auto _ : State)
    benchmark::DoNotOptimize(execute(C, M, ExecutionRequest()));
}
BENCHMARK(BM_ExecutorRun);

void BM_CompileCodelet(benchmark::State &State) {
  Codelet C = benchCodelet(1 << 20);
  Machine M = makeNehalem();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        compile(C, M, CompilationContext::InApplication));
}
BENCHMARK(BM_CompileCodelet);

// N-scaling sweep shared by the clustering benchmarks: 67 is the paper's
// NAS codelet count, the powers of two track the production-scale
// trajectory (BENCH_clustering.json records the checked-in baseline).
void clusteringArgs(benchmark::internal::Benchmark *B) {
  B->Arg(64)->Arg(67)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();
}

void BM_WardCluster(benchmark::State &State) {
  FeatureTable Points = syntheticPoints(State.range(0), 14);
  for (auto _ : State)
    benchmark::DoNotOptimize(hierarchicalCluster(Points, Linkage::Ward));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_WardCluster)->Apply(clusteringArgs);

// The retained O(N^3) closest-pair reference; its recorded times in
// BENCH_clustering.json are the baseline the NN-chain speedup is judged
// against (no 4096 point: the cubic cost makes it minutes per run).
void BM_WardClusterNaive(benchmark::State &State) {
  FeatureTable Points = syntheticPoints(State.range(0), 14);
  for (auto _ : State)
    benchmark::DoNotOptimize(hierarchicalClusterNaive(Points, Linkage::Ward));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_WardClusterNaive)->Arg(64)->Arg(67)->Arg(256)->Arg(1024)
    ->Complexity();

void BM_ElbowSearch(benchmark::State &State) {
  FeatureTable Points = syntheticPoints(State.range(0), 14);
  Dendrogram Tree = hierarchicalCluster(Points);
  for (auto _ : State)
    benchmark::DoNotOptimize(elbowK(Points, Tree, 24));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_ElbowSearch)->Apply(clusteringArgs);

void BM_RepresentativeSelection(benchmark::State &State) {
  FeatureTable Points = syntheticPoints(67, 14);
  Dendrogram Tree = hierarchicalCluster(Points);
  Clustering C = Tree.cut(18);
  for (auto _ : State)
    benchmark::DoNotOptimize(selectRepresentatives(
        Points, C, [](std::size_t) { return true; }));
}
BENCHMARK(BM_RepresentativeSelection);

void BM_PredictionModel(benchmark::State &State) {
  Rng R(7);
  std::vector<double> RefTimes(67);
  std::vector<int> Assignment(67);
  for (std::size_t I = 0; I < 67; ++I) {
    RefTimes[I] = 0.001 + R.uniform();
    Assignment[I] = static_cast<int>(I % 18);
  }
  std::vector<std::size_t> Reps;
  for (std::size_t K = 0; K < 18; ++K)
    Reps.push_back(K); // Codelet K is in cluster K.
  std::vector<double> RepTimes(18, 0.5);
  for (auto _ : State) {
    PredictionModel M = PredictionModel::build(RefTimes, Assignment, Reps);
    benchmark::DoNotOptimize(M.predict(RepTimes));
  }
}
BENCHMARK(BM_PredictionModel);

void BM_FeatureComputation(benchmark::State &State) {
  Codelet C = benchCodelet(1 << 20);
  Machine Ref = makeNehalem();
  Measurement M = measureInApp(C, Ref);
  for (auto _ : State)
    benchmark::DoNotOptimize(computeFeatures(C, Ref, M));
}
BENCHMARK(BM_FeatureComputation);

double countZeros(const Chromosome &C) {
  double Zeros = 0.0;
  for (bool Bit : C)
    Zeros += !Bit;
  return Zeros;
}

// Population-size scaling of the GA's generation loop, evaluated with
// the auto thread count (FGBS_THREADS / hardware_concurrency).
void BM_GaGeneration(benchmark::State &State) {
  for (auto _ : State) {
    GaConfig Cfg;
    Cfg.ChromosomeLength = 76;
    Cfg.PopulationSize = static_cast<std::size_t>(State.range(0));
    Cfg.Generations = 5;
    benchmark::DoNotOptimize(runGa(Cfg, countZeros));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_GaGeneration)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Complexity();

// Single-threaded reference for the same sweep: the parallel fan-out
// must never lose to this by more than scheduling noise.
void BM_GaGenerationSerial(benchmark::State &State) {
  for (auto _ : State) {
    GaConfig Cfg;
    Cfg.ChromosomeLength = 76;
    Cfg.PopulationSize = static_cast<std::size_t>(State.range(0));
    Cfg.Generations = 5;
    Cfg.Threads = 1;
    benchmark::DoNotOptimize(runGa(Cfg, countZeros));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_GaGenerationSerial)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Complexity();

void BM_PipelineRerun(benchmark::State &State) {
  // Steps C-E over a prebuilt database: the cost of one point in the
  // Figure 3 K-sweep or one Figure 7 random-clustering evaluation.
  static Suite S = makeSyntheticSuite({});
  static MeasurementDatabase Db(S, makeNehalem(), {makeSandyBridge()});
  Pipeline P(Db, PipelineConfig());
  for (auto _ : State)
    benchmark::DoNotOptimize(P.run());
}
BENCHMARK(BM_PipelineRerun);

void BM_PipelineRerunNr(benchmark::State &State) {
  // One Table 2 fitness evaluation: steps C-E over the Numerical Recipes
  // database on the three paper targets, under one of 64 seeded random
  // feature masks per iteration (the GA's distinct fitness calls).
  static Suite S = makeNumericalRecipes();
  static MeasurementDatabase Db(S, makeNehalem(), paperTargets());
  std::vector<FeatureMask> Masks;
  Rng R(0x7AB1E2);
  for (int I = 0; I < 64; ++I) {
    FeatureMask Mask(NumFeatures);
    for (std::size_t B = 0; B < NumFeatures; ++B)
      Mask[B] = R.bernoulli(0.5);
    Mask[R.below(NumFeatures)] = true; // Never empty.
    Masks.push_back(std::move(Mask));
  }
  std::size_t Next = 0;
  for (auto _ : State) {
    PipelineConfig Config;
    Config.Features = Masks[Next++ % Masks.size()];
    benchmark::DoNotOptimize(Pipeline(Db, Config).run());
  }
}
BENCHMARK(BM_PipelineRerunNr);

void BM_SuiteTextRoundTrip(benchmark::State &State) {
  Suite S = makeSyntheticSuite({});
  for (auto _ : State) {
    std::string Printed = printSuite(S);
    benchmark::DoNotOptimize(parseSuite(Printed));
  }
}
BENCHMARK(BM_SuiteTextRoundTrip);

void BM_SyntheticGeneration(benchmark::State &State) {
  SyntheticConfig Config;
  Config.NumApplications = 8;
  Config.CodeletsPerApp = 16;
  std::uint64_t Seed = 0;
  for (auto _ : State) {
    Config.Seed = ++Seed;
    benchmark::DoNotOptimize(makeSyntheticSuite(Config));
  }
}
BENCHMARK(BM_SyntheticGeneration);

void BM_RandomClustering(benchmark::State &State) {
  std::uint64_t Seed = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(randomClustering(67, 18, ++Seed));
}
BENCHMARK(BM_RandomClustering);

/// Console output as usual, plus every per-iteration result recorded
/// into the telemetry session so the run exports as fgbs.run.v1 (the
/// schema bench/BENCH_clustering.json and the CI perf gate consume).
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
  obs::Session Run("perf_library");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  SessionReporter Reporter(Run);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return 0;
}
