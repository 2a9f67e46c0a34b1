//===- fgbs/core/Database.cpp - Measurement database ----------------------===//

#include "fgbs/core/Database.h"

#include "fgbs/compiler/CompileCache.h"
#include "fgbs/model/Prediction.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/sim/Executor.h"
#include "fgbs/support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

using namespace fgbs;

namespace {

/// Groups \p Kept, the kept codelets in kept order, by application as
/// AppMembers documents.
AppMembers membersByApplication(const Suite &S,
                                const std::vector<const Codelet *> &Kept) {
  const std::vector<Application> &Apps = S.Applications;
  auto FirstNamed = [&Apps](const std::string &Name) {
    std::size_t A = 0;
    while (A < Apps.size() && Apps[A].Name != Name)
      ++A;
    return A; // Apps.size() when no application has the name.
  };
  std::vector<std::size_t> OwnerOf(Kept.size());
  for (std::size_t I = 0; I < Kept.size(); ++I)
    OwnerOf[I] = FirstNamed(Kept[I]->App);

  AppMembers Out;
  for (std::size_t A = 0; A < Apps.size(); ++A) {
    const std::size_t Owner = FirstNamed(Apps[A].Name);
    for (std::size_t I = 0; I < Kept.size(); ++I)
      if (OwnerOf[I] == Owner)
        Out.Members.push_back(I);
    if (Out.Members.size() == Out.Begin.back())
      continue; // No kept codelet: the application is not reported.
    Out.Names.push_back(Apps[A].Name);
    Out.Coverage.push_back(Apps[A].Coverage);
    Out.Begin.push_back(Out.Members.size());
  }
  return Out;
}

} // namespace

std::size_t fgbs::measurementItemCount(std::size_t NumCodelets,
                                       std::size_t NumTargets) {
  return NumCodelets * (2 + 2 * NumTargets);
}

MeasurementItem fgbs::decodeMeasurementItem(std::size_t Item,
                                            std::size_t NumCodelets,
                                            std::size_t NumTargets) {
  assert(Item < measurementItemCount(NumCodelets, NumTargets) &&
         "item index out of range");
  (void)NumTargets;
  const std::size_t N = NumCodelets;
  MeasurementItem Out;
  Out.Codelet = Item % N;
  if (Item < N) {
    Out.Kind = MeasurementItemKind::ProfileRef;
  } else if (Item < 2 * N) {
    Out.Kind = MeasurementItemKind::StandaloneRef;
  } else {
    Out.Target = (Item - 2 * N) / (2 * N);
    Out.Kind = ((Item - 2 * N) / N) % 2 == 0
                   ? MeasurementItemKind::InAppTarget
                   : MeasurementItemKind::StandaloneTarget;
  }
  return Out;
}

MeasurementItemResult fgbs::executeMeasurementItem(
    const Codelet &C, const Machine &Reference,
    const std::vector<Machine> &Targets, const TimingPolicy &Policy,
    const MeasurementItem &Item, CompileCache *Compile) {
  MeasurementItemResult Out;
  Out.Kind = Item.Kind;
  switch (Item.Kind) {
  case MeasurementItemKind::ProfileRef:
    Out.Profile = profileCodelet(C, Reference, Compile);
    break;
  case MeasurementItemKind::StandaloneRef:
    Out.Standalone = measureStandalone(C, Reference, Policy, Compile);
    break;
  case MeasurementItemKind::InAppTarget:
    Out.InApp = measureInApp(C, Targets[Item.Target], Compile);
    break;
  case MeasurementItemKind::StandaloneTarget:
    Out.Standalone = measureStandalone(C, Targets[Item.Target], Policy,
                                       Compile);
    break;
  }
  return Out;
}

MeasurementDatabase::MeasurementDatabase(const Suite &S, Machine Ref,
                                         std::vector<Machine> Tgts,
                                         const TimingPolicy &Policy,
                                         const DatabaseOptions &Options)
    : TheSuite(&S), Reference(std::move(Ref)), Targets(std::move(Tgts)) {
  // Steps A-B: capture + profile on the reference machine, then the
  // ground-truth and standalone measurements on every target.  The work
  // is enumerated as independent (codelet, machine, kind) items, each
  // writing its own pre-sized slot, and fanned out over the pool: the
  // result is bit-identical for any thread count, and a pool of one
  // reproduces the historical serial sweep exactly.
  FGBS_TRACE_SPAN("pipeline.measure");

  std::vector<const Codelet *> Codelets = S.allCodelets();
  const std::size_t N = Codelets.size();
  const std::size_t T = Targets.size();

  Profiles.resize(N);
  StandaloneOnRef.resize(N);
  RealTarget.assign(T, std::vector<Measurement>(N));
  StandaloneOnTarget.assign(T, std::vector<StandaloneMeasurement>(N));

  // One compile memo for the whole sweep: each codelet is lowered once
  // per (machine, context) instead of once per execute() call — the
  // in-application profile, every invocation group, the ground-truth
  // target runs, and the static feature analysis all share it.
  CompileCache Compile;

  unsigned Threads =
      Options.Threads > 0 ? Options.Threads : ThreadPool::defaultThreadCount();
  FGBS_GAUGE_SET("db.threads", Threads);
  ThreadPool Pool(Threads);

  // Sample every memory trace the sweep will ask for first, each in one
  // walk for the reference and all targets: per codelet, one trace per
  // dataset scale of its invocation groups (the standalone runs replay
  // the first group's).  memoryTrace() is what execute() samples, so
  // every sampling in the sweep below is a memo hit.  Codelets that
  // share a trace are primed by one task, so each trace is walked once
  // (the memo lets racing misses walk a key twice), and the longest
  // walks start first, so the pool's last tasks are short ones.
  std::vector<const Machine *> Machines = {&Reference};
  for (const Machine &Target : Targets)
    Machines.push_back(&Target);
  std::vector<MemoryTrace> Traces;
  for (const Codelet *C : Codelets)
    for (const InvocationGroup &G : C->Invocations)
      Traces.push_back(memoryTrace(*C, G.DatasetScale));
  std::sort(Traces.begin(), Traces.end());
  Traces.erase(std::unique(Traces.begin(), Traces.end()), Traces.end());
  std::ranges::stable_sort(Traces, std::greater<>(),
                           [&Machines](const MemoryTrace &Trace) {
                             return simulatedAccesses(Trace, Machines);
                           });
  Pool.parallelFor(0, Traces.size(), [&](std::size_t I) {
    primeMemoryBehavior(Traces[I].Streams, Machines,
                        Traces[I].TotalIterations);
  });

  // Work-item index space, kind-major (decodeMeasurementItem owns it):
  //   [0, N)        profile codelet I on the reference (step B),
  //   [N, 2N)       standalone codelet I on the reference,
  //   [2N + 2*t*N + 0..N)   in-app ground truth of codelet I on target t,
  //   [2N + (2t+1)*N ..)    standalone codelet I on target t.
  Pool.parallelFor(0, measurementItemCount(N, T), [&](std::size_t Item) {
    const MeasurementItem M = decodeMeasurementItem(Item, N, T);
    MeasurementItemResult R = executeMeasurementItem(
        *Codelets[M.Codelet], Reference, Targets, Policy, M, &Compile);
    switch (M.Kind) {
    case MeasurementItemKind::ProfileRef:
      Profiles[M.Codelet] = std::move(R.Profile);
      break;
    case MeasurementItemKind::StandaloneRef:
      StandaloneOnRef[M.Codelet] = R.Standalone;
      break;
    case MeasurementItemKind::InAppTarget:
      RealTarget[M.Target][M.Codelet] = R.InApp;
      break;
    case MeasurementItemKind::StandaloneTarget:
      StandaloneOnTarget[M.Target][M.Codelet] = R.Standalone;
      break;
    }
  });

  FGBS_COUNTER_ADD("db.codelets_profiled", N);
  assert(Codelets.size() == Profiles.size() && "profile count mismatch");
  Inputs = computePipelineInputs();
}

MeasurementDatabase::MeasurementDatabase(
    const Suite &S, Machine Ref, std::vector<Machine> Tgts,
    std::vector<CodeletProfile> Profs,
    std::vector<std::vector<Measurement>> Real,
    std::vector<StandaloneMeasurement> StandaloneRef,
    std::vector<std::vector<StandaloneMeasurement>> StandaloneTgt)
    : TheSuite(&S), Reference(std::move(Ref)), Targets(std::move(Tgts)),
      Profiles(std::move(Profs)), RealTarget(std::move(Real)),
      StandaloneOnRef(std::move(StandaloneRef)),
      StandaloneOnTarget(std::move(StandaloneTgt)) {
  assert(Profiles.size() == S.numCodelets() && "profile count mismatch");
  assert(StandaloneOnRef.size() == Profiles.size() &&
         "standalone count mismatch");
  assert(RealTarget.size() == Targets.size() && "target grid mismatch");
  assert(StandaloneOnTarget.size() == Targets.size() &&
         "target grid mismatch");
  Inputs = computePipelineInputs();
}

PipelineInputs MeasurementDatabase::computePipelineInputs() const {
  PipelineInputs In;
  for (std::size_t I = 0; I < Profiles.size(); ++I)
    if (!Profiles[I].Discarded)
      In.Kept.push_back(I);
  const std::size_t N = In.Kept.size();

  FeatureTable Features;
  Features.reserve(N);
  std::vector<const Codelet *> KeptCodelets(N);
  In.WellBehaved.resize(N);
  In.RefTimes.resize(N);
  In.Invocations.resize(N);
  for (std::size_t I = 0; I < N; ++I) {
    const std::size_t C = In.Kept[I];
    Features.push_back(Profiles[C].Features);
    KeptCodelets[I] = Profiles[C].C;
    In.WellBehaved[I] = isWellBehavedOnRef(C);
    In.RefTimes[I] = Profiles[C].InApp.MeasuredSeconds;
    In.Invocations[I] = static_cast<double>(codelet(C).totalInvocations());
  }
  // computeNormalization needs a non-empty, rectangular table.  A suite
  // whose codelets are all discarded has no rows, and a database
  // assembled from another build's feature vectors (which the
  // fgbs.meas.v1 loader rejects) has rows no pipeline can read.
  auto IsFullWidth = [](const std::vector<double> &Row) {
    return Row.size() == NumFeatures;
  };
  if (N > 0 && std::all_of(Features.begin(), Features.end(), IsFullWidth)) {
    In.Norm = computeNormalization(Features);
    In.Normalized = normalizeFeatures(std::move(Features), In.Norm);
  }

  In.Apps = membersByApplication(*TheSuite, KeptCodelets);
  for (std::size_t J = 0; J < In.Apps.size(); ++J)
    In.AppReference.push_back(applicationTime(
        In.RefTimes, In.Invocations, In.Apps.of(J), In.Apps.Coverage[J]));

  In.Targets.resize(Targets.size());
  for (std::size_t T = 0; T < Targets.size(); ++T) {
    TargetInputs &Tgt = In.Targets[T];
    Tgt.Real.resize(N);
    Tgt.StandaloneMedian.resize(N);
    Tgt.BenchmarkSeconds.resize(N);
    for (std::size_t I = 0; I < N; ++I) {
      const StandaloneMeasurement &Standalone =
          StandaloneOnTarget[T][In.Kept[I]];
      Tgt.Real[I] = RealTarget[T][In.Kept[I]].MeasuredSeconds;
      Tgt.StandaloneMedian[I] = Standalone.MedianSeconds;
      Tgt.BenchmarkSeconds[I] = Standalone.TotalBenchmarkSeconds;
      Tgt.FullSuiteSeconds += Tgt.Real[I] * In.Invocations[I];
      Tgt.ReducedInvocationSeconds += Standalone.TotalBenchmarkSeconds;
    }
    for (std::size_t J = 0; J < In.Apps.size(); ++J)
      Tgt.AppReal.push_back(applicationTime(
          Tgt.Real, In.Invocations, In.Apps.of(J), In.Apps.Coverage[J]));
    if (!Tgt.AppReal.empty())
      Tgt.RealGeomeanSpeedup =
          geometricMeanSpeedup(In.AppReference, Tgt.AppReal);
  }
  return In;
}

bool MeasurementDatabase::isWellBehavedOnRef(std::size_t Codelet) const {
  return isWellBehaved(StandaloneOnRef[Codelet],
                       Profiles[Codelet].InApp.MeasuredSeconds);
}
