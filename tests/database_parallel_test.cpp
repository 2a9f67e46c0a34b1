//===- tests/database_parallel_test.cpp - Parallel measurement fan-out ----===//

#include "fgbs/core/MeasurementCache.h"

#include "fgbs/analysis/Profiler.h"
#include "fgbs/extract/Extraction.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/sim/Executor.h"
#include "fgbs/suites/Synthetic.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>

using namespace fgbs;

namespace {

Suite smallSuite() {
  SyntheticConfig Cfg;
  Cfg.NumApplications = 2;
  Cfg.CodeletsPerApp = 3;
  Cfg.MinFootprintBytes = 64 << 10;
  Cfg.MaxFootprintBytes = 1 << 20;
  return makeSyntheticSuite(Cfg);
}

/// Field-by-field equality of two databases over the same suite.  The
/// serialized form covers every field, so byte equality IS database
/// equality — exactly the property the parallel fan-out promises.
void expectBitIdentical(const MeasurementDatabase &A,
                        const MeasurementDatabase &B) {
  EXPECT_EQ(serializeMeasurements(A, 0), serializeMeasurements(B, 0));
}

/// Two applications of three codelets from \p Seed.  The sampling memo
/// is process-wide, so a test that needs it cold uses a seed no other
/// test uses.  The footprints stay above the generator's 64Ki-element
/// floor and apart from smallSuite()'s, so no trace repeats one an
/// earlier test in this process sampled.
SyntheticConfig coldConfig(std::uint64_t Seed) {
  SyntheticConfig Cfg;
  Cfg.NumApplications = 2;
  Cfg.CodeletsPerApp = 3;
  Cfg.MinFootprintBytes = 5 << 18;
  Cfg.MaxFootprintBytes = 5 << 19;
  Cfg.Seed = Seed;
  return Cfg;
}

/// The trace walks \p Snap's sim.sample.walk timer counted.
std::uint64_t walks(const obs::MetricsSnapshot &Snap) {
  auto It = Snap.Histograms.find("sim.sample.walk");
  return It == Snap.Histograms.end() ? 0 : It->second.Count;
}

} // namespace

TEST(DatabaseParallel, AnyThreadCountIsBitIdenticalToSerial) {
  Suite S = smallSuite();
  std::vector<Machine> Targets = {makeAtom(), makeSandyBridge()};

  DatabaseOptions Serial;
  Serial.Threads = 1;
  MeasurementDatabase DbSerial(S, makeNehalem(), Targets, {}, Serial);

  for (unsigned Threads : {2u, 8u}) {
    DatabaseOptions Parallel;
    Parallel.Threads = Threads;
    MeasurementDatabase DbParallel(S, makeNehalem(), Targets, {}, Parallel);
    expectBitIdentical(DbSerial, DbParallel);
  }
}

TEST(DatabaseParallel, SharedCompileMemoDoesNotChangeMeasurements) {
  // Regression for the duplicate-compile fix: database construction now
  // routes every execute() through one shared CompileCache.  The values
  // must equal what the memo-free entry points produce.
  Suite S = smallSuite();
  std::vector<Machine> Targets = {makeAtom()};
  MeasurementDatabase Db(S, makeNehalem(), Targets);

  std::vector<const Codelet *> Codelets = S.allCodelets();
  for (std::size_t I = 0; I < Codelets.size(); ++I) {
    const Codelet &C = *Codelets[I];

    CodeletProfile Plain = profileCodelet(C, makeNehalem());
    EXPECT_EQ(Db.profile(I).InApp.MeasuredSeconds, Plain.InApp.MeasuredSeconds);
    EXPECT_EQ(Db.profile(I).Features, Plain.Features);
    EXPECT_EQ(Db.profile(I).Discarded, Plain.Discarded);

    StandaloneMeasurement RefPlain = measureStandalone(C, makeNehalem());
    EXPECT_EQ(Db.standaloneRef(I).MedianSeconds, RefPlain.MedianSeconds);
    EXPECT_EQ(Db.standaloneRef(I).Invocations, RefPlain.Invocations);

    Measurement InAppPlain = measureInApp(C, Targets[0]);
    EXPECT_EQ(Db.realTargetSeconds(I, 0), InAppPlain.MeasuredSeconds);

    StandaloneMeasurement TgtPlain = measureStandalone(C, Targets[0]);
    EXPECT_EQ(Db.standaloneTarget(I, 0).MedianSeconds, TgtPlain.MedianSeconds);
  }
}

TEST(DatabaseParallel, CompileCacheIsSharedAcrossKinds) {
  CompileCache Cache;
  Suite S = smallSuite();
  const Codelet &C = *S.allCodelets().front();
  Machine Ref = makeNehalem();

  const BinaryLoop &A =
      Cache.get(C, Ref, CompilationContext::InApplication, CompilerOptions());
  const BinaryLoop &B =
      Cache.get(C, Ref, CompilationContext::InApplication, CompilerOptions());
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(Cache.size(), 1u);

  // Different context, machine, or options are distinct entries.
  Cache.get(C, Ref, CompilationContext::Standalone, CompilerOptions());
  EXPECT_EQ(Cache.size(), 2u);
  Cache.get(C, makeAtom(), CompilationContext::InApplication,
            CompilerOptions());
  EXPECT_EQ(Cache.size(), 3u);
  Cache.get(C, Ref, CompilationContext::InApplication,
            CompilerOptions::noVec());
  EXPECT_EQ(Cache.size(), 4u);
}

TEST(DatabaseParallel, DatabaseBuildRecordsCompileHits) {
  // A database build compiles each (codelet, machine, context) once and
  // serves every further execute() from the memo: with telemetry on,
  // sim.compile.hits must be positive and misses bounded by the distinct
  // compile keys.
  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();

  Suite S = smallSuite();
  std::vector<Machine> Targets = {makeAtom()};
  MeasurementDatabase Db(S, makeNehalem(), Targets);
  EXPECT_GT(Db.numCodelets(), 0u);

  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  obs::setEnabled(false);

  ASSERT_TRUE(Snap.Counters.count("sim.compile.hits"));
  ASSERT_TRUE(Snap.Counters.count("sim.compile.misses"));
  EXPECT_GT(Snap.Counters.at("sim.compile.hits"), 0u);
  // Distinct keys: codelets x (reference {InApp, Standalone} + target
  // {InApp, Standalone}) is the ceiling; racing misses may compile a key
  // twice but never more than once per work item.
  EXPECT_LE(Snap.Counters.at("sim.compile.misses"),
            Snap.Counters.at("sim.execute"));
  EXPECT_GT(Snap.Counters.at("sim.execute"), 0u);
}

TEST(DatabaseParallel, ColdBuildWalksEachTraceOnce) {
  // A cold build samples each distinct memory trace in one walk for the
  // reference and all three targets, before the sweep asks for it: four
  // misses per walk, and no trace walked twice.  Each thread count
  // builds a suite from its own seed, to start cold.
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    Suite S = makeSyntheticSuite(coldConfig(0xC01D0 + Threads));

    // The distinct traces the sweep samples: one per codelet and
    // distinct invocation-group scale.
    std::set<MemoryTrace> Traces;
    for (const Codelet *C : S.allCodelets())
      for (const InvocationGroup &G : C->Invocations)
        Traces.insert(memoryTrace(*C, G.DatasetScale));

    obs::setEnabled(true);
    obs::MetricsRegistry::global().reset();
    DatabaseOptions Options;
    Options.Threads = Threads;
    MeasurementDatabase Db(S, makeNehalem(), paperTargets(), {}, Options);
    obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
    obs::setEnabled(false);

    EXPECT_EQ(walks(Snap), Traces.size());
    EXPECT_EQ(obs::counterTotal("sim.sample.misses"), 4 * walks(Snap));
    EXPECT_GT(obs::counterTotal("sim.sample.hits"), 0u);
  }
}

TEST(DatabaseParallel, CodeletsSharingATraceWalkItOnce) {
  // Two codelets with one memory trace, first in the suite, where four
  // threads would start on both at once: the pre-pass primes each
  // distinct trace in one task, so a cold build walks it once, not once
  // per codelet.  Its own seed keeps the memo cold.
  const SyntheticConfig Cfg = coldConfig(0x5EA4ED);
  Suite S = makeSyntheticSuite(Cfg);
  // The generator is deterministic: a second suite's first codelet is a
  // copy of this one's.
  Codelet Twin = std::move(makeSyntheticSuite(Cfg).Applications[0].Codelets[0]);
  Twin.Name += "_twin";
  std::vector<Codelet> &First = S.Applications.front().Codelets;
  First.insert(First.begin() + 1, std::move(Twin));

  std::set<MemoryTrace> Traces;
  std::size_t Pairs = 0; // Distinct (codelet, trace) pairs.
  for (const Codelet *C : S.allCodelets()) {
    std::set<MemoryTrace> Own;
    for (const InvocationGroup &G : C->Invocations)
      Own.insert(memoryTrace(*C, G.DatasetScale));
    Pairs += Own.size();
    Traces.insert(Own.begin(), Own.end());
  }
  ASSERT_LT(Traces.size(), Pairs);

  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();
  DatabaseOptions Options;
  Options.Threads = 4;
  MeasurementDatabase Db(S, makeNehalem(), paperTargets(), {}, Options);
  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  obs::setEnabled(false);

  EXPECT_EQ(walks(Snap), Traces.size());
  EXPECT_EQ(obs::counterTotal("sim.sample.misses"), 4 * Traces.size());
}

TEST(DatabaseParallel, RacingBuildsInOneProcessAgree) {
  // Two builds of one cold suite at once share the process-wide memo,
  // so their pre-passes may both walk a trace; the first insert wins.
  // The databases must be bit-identical, and a third build afterwards
  // must find every trace memoized.  Its own seed keeps the memo cold.
  const Suite S = makeSyntheticSuite(coldConfig(0x2ACE5));
  DatabaseOptions Options;
  Options.Threads = 2;
  auto Build = [&S, &Options] {
    return std::make_unique<MeasurementDatabase>(S, makeNehalem(),
                                                 paperTargets(),
                                                 TimingPolicy{}, Options);
  };
  std::unique_ptr<MeasurementDatabase> A, B;
  std::thread First([&] { A = Build(); });
  std::thread Second([&] { B = Build(); });
  First.join();
  Second.join();
  expectBitIdentical(*A, *B);

  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();
  std::unique_ptr<MeasurementDatabase> Third = Build();
  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  obs::setEnabled(false);
  EXPECT_EQ(walks(Snap), 0u);
  expectBitIdentical(*A, *Third);
}
