//===- bench/measure_throughput.cpp - Measurement fan-out benchmarks ------===//
//
// Google-benchmark microbenchmarks of the measurement layer: full
// MeasurementDatabase construction at 1-8 threads (the parallel fan-out
// headline — on an 8-core host the 8-thread build is expected >= 3x the
// serial build; this container's baseline was captured on 1 CPU, where
// the interesting number is that threading costs nothing), plus
// fgbs.meas.v1 serialize/parse, the whole warm-cache load path that a
// cached run pays instead of simulation, and the CRC-32 every stored
// payload carries.  Numbers are checked into
// BENCH_measure.json for the CI perf gate.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/suites/Suites.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/Crc32.h"
#include "fgbs/support/Rng.h"

#include <benchmark/benchmark.h>

#include <filesystem>

using namespace fgbs;

namespace {

/// The benchmark corpus: a mid-size synthetic suite, big enough that the
/// fan-out has real work per thread, cheap enough for CI.
const Suite &benchSuite() {
  static const Suite S = [] {
    SyntheticConfig Cfg;
    Cfg.NumApplications = 2;
    Cfg.CodeletsPerApp = 6;
    Cfg.MinFootprintBytes = 64 << 10;
    Cfg.MaxFootprintBytes = 4 << 20;
    return makeSyntheticSuite(Cfg);
  }();
  return S;
}

/// One finished database over the bench suite, for serialize/parse.
const MeasurementDatabase &benchDatabase() {
  static const MeasurementDatabase Db(benchSuite(), makeNehalem(),
                                      paperTargets());
  return Db;
}

std::uint64_t benchKey() {
  return measurementKey(benchSuite(), makeNehalem(), paperTargets());
}

/// Full database construction, Arg = measurement threads.  The process
/// memory-behaviour memo (sampleMemoryBehaviorCached) is warmed by a
/// discarded first build so every thread count times the same work —
/// otherwise whichever arg runs first absorbs the one-time cold
/// sampling cost and the comparison is an ordering artifact.
void BM_BuildDatabase(benchmark::State &State) {
  const Suite &S = benchSuite();
  benchDatabase(); // Warm the process-wide memo.
  DatabaseOptions Options;
  Options.Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    MeasurementDatabase Db(S, makeNehalem(), paperTargets(), {}, Options);
    benchmark::DoNotOptimize(Db);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(S.numCodelets()));
}
BENCHMARK(BM_BuildDatabase)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Same sweep over the Numerical Recipes suite: the shape the fig/table
/// benches and fgbs_train actually build.
void BM_BuildDatabaseNR(benchmark::State &State) {
  static const Suite NR = makeNumericalRecipes();
  static const MeasurementDatabase MemoWarmer(NR, makeNehalem(),
                                              paperTargets());
  DatabaseOptions Options;
  Options.Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    MeasurementDatabase Db(NR, makeNehalem(), paperTargets(), {}, Options);
    benchmark::DoNotOptimize(Db);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(NR.numCodelets()));
}
BENCHMARK(BM_BuildDatabaseNR)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SerializeMeasurements(benchmark::State &State) {
  const MeasurementDatabase &Db = benchDatabase();
  const std::uint64_t Key = benchKey();
  for (auto _ : State)
    benchmark::DoNotOptimize(serializeMeasurements(Db, Key));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SerializeMeasurements);

void BM_ParseMeasurements(benchmark::State &State) {
  std::string Bytes = serializeMeasurements(benchDatabase(), benchKey());
  for (auto _ : State) {
    MeasurementLoadResult R = parseMeasurements(
        Bytes, benchSuite(), makeNehalem(), paperTargets(), benchKey());
    benchmark::DoNotOptimize(R);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Bytes.size()));
}
BENCHMARK(BM_ParseMeasurements);

/// The complete warm-run path: key derivation, file read, CRC, parse,
/// database reassembly.  This is what replaces simulation on a cache
/// hit, so its gap to BM_BuildDatabase IS the cache's payoff.
void BM_WarmCacheLoad(benchmark::State &State) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "fgbs_bench_meas_cache";
  std::filesystem::create_directories(Dir);
  DatabaseBuildOptions Options;
  Options.CacheDir = Dir.string();
  // Populate once; every timed iteration hits.
  buildMeasurementDatabase(benchSuite(), makeNehalem(), paperTargets(),
                           Options);
  for (auto _ : State) {
    auto Db = buildMeasurementDatabase(benchSuite(), makeNehalem(),
                                       paperTargets(), Options);
    benchmark::DoNotOptimize(Db);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(
                              benchSuite().numCodelets()));
  std::filesystem::remove_all(Dir);
}
BENCHMARK(BM_WarmCacheLoad);

/// CRC-32 over a seeded buffer, Arg = bytes.  Every fgbs.meas.v1,
/// fgbs.model.v1 and wire payload pays one per write and per verify.
void BM_Crc32(benchmark::State &State) {
  Rng R(0xC3C32);
  std::string Bytes(static_cast<std::size_t>(State.range(0)), '\0');
  for (char &C : Bytes)
    C = static_cast<char>(R.nextU64() & 0xff);
  for (auto _ : State)
    benchmark::DoNotOptimize(crc32(Bytes));
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Bytes.size()));
}
BENCHMARK(BM_Crc32)->Arg(65536);

/// One uncontended acquire/release of the cross-process writer lock —
/// the fixed overhead a cold store pays on top of simulation for its
/// per-entry lock.  Dominated by the open/flock syscall pair.
void BM_FileLockCycle(benchmark::State &State) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "fgbs_bench_file_lock";
  std::filesystem::create_directories(Dir);
  const std::string Path = (Dir / "bench.lock").string();
  for (auto _ : State) {
    FileLock Lock(Path);
    benchmark::DoNotOptimize(Lock.acquire());
    Lock.release();
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()));
  std::filesystem::remove_all(Dir);
}
BENCHMARK(BM_FileLockCycle);

/// Console output as usual, plus every per-iteration result recorded
/// into the telemetry session so the run exports as fgbs.run.v1 (the
/// schema bench/BENCH_measure.json and the CI perf gate consume).
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
  obs::Session Run("measure_throughput");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  SessionReporter Reporter(Run);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return 0;
}
