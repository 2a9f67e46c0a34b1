//===- fgbs/core/Database.h - Measurement database --------------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement database: every simulated measurement a study needs,
/// computed once and cached.
///
/// For each codelet it holds the reference profile (step B), the "real"
/// in-application times on every target (the ground truth the paper
/// compares predictions against), and the standalone microbenchmark
/// measurements on every machine (what step D/E actually run).
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_DATABASE_H
#define FGBS_CORE_DATABASE_H

#include "fgbs/analysis/Profiler.h"
#include "fgbs/cluster/Cluster.h"
#include "fgbs/extract/Extraction.h"

#include <span>
#include <string>
#include <vector>

namespace fgbs {

class CompileCache;

/// One (codelet, machine, kind) work item of the simulator sweep,
/// decoded from the flat item index space the MeasurementDatabase ctor
/// fans out over.
enum class MeasurementItemKind : std::uint32_t {
  ProfileRef = 0,       ///< Step-B profile on the reference machine.
  StandaloneRef = 1,    ///< Standalone microbenchmark on the reference.
  InAppTarget = 2,      ///< Ground-truth in-app time on one target.
  StandaloneTarget = 3, ///< Standalone microbenchmark on one target.
};

struct MeasurementItem {
  MeasurementItemKind Kind = MeasurementItemKind::ProfileRef;
  std::size_t Codelet = 0;
  std::size_t Target = 0; ///< Valid for the *Target kinds only.
};

/// Total work items for a sweep of \p NumCodelets codelets over
/// \p NumTargets targets: N * (2 + 2T).
std::size_t measurementItemCount(std::size_t NumCodelets,
                                 std::size_t NumTargets);

/// Decodes flat index \p Item (kind-major layout, see Database.cpp) into
/// its (kind, codelet, target) triple.  \p Item must be below
/// measurementItemCount(\p NumCodelets, \p NumTargets).
MeasurementItem decodeMeasurementItem(std::size_t Item,
                                      std::size_t NumCodelets,
                                      std::size_t NumTargets);

/// The result of one work item; only the field matching Kind is set.
struct MeasurementItemResult {
  MeasurementItemKind Kind = MeasurementItemKind::ProfileRef;
  CodeletProfile Profile;           ///< ProfileRef.
  Measurement InApp;                ///< InAppTarget.
  StandaloneMeasurement Standalone; ///< StandaloneRef/StandaloneTarget.
};

/// Executes one work item — the calls the MeasurementDatabase ctor
/// makes for it, so any caller's result is bit-identical to the
/// sweep's.  \p C is the codelet \p Item.Codelet names; \p Compile
/// may be null.
MeasurementItemResult executeMeasurementItem(const Codelet &C,
                                             const Machine &Reference,
                                             const std::vector<Machine> &Targets,
                                             const TimingPolicy &Policy,
                                             const MeasurementItem &Item,
                                             CompileCache *Compile);

/// How a MeasurementDatabase runs its simulator sweep.
struct DatabaseOptions {
  /// Threads measuring work items.  0 = auto (the FGBS_THREADS
  /// environment variable, else hardware_concurrency()); 1 = strictly
  /// serial.  Any thread count yields bit-identical databases: every
  /// work item writes its own result slot and the measurements are
  /// deterministic (the ThreadPool contract).
  unsigned Threads = 0;
};

/// The kept codelets of every suite application that has any, in suite
/// application order, grouped by name as the per-application sums define
/// it: an application owns every kept codelet whose App names it, in
/// kept order; an application that repeats an earlier one's name has the
/// same members; a codelet whose App names no application belongs to
/// none.
struct AppMembers {
  std::vector<std::string> Names;
  std::vector<double> Coverage;
  /// Application J's members (kept-local indices) are
  /// Members[Begin[J], Begin[J + 1]).
  std::vector<std::size_t> Begin{0};
  std::vector<std::size_t> Members;

  std::size_t size() const { return Names.size(); }

  /// Application J's members.
  std::span<const std::size_t> of(std::size_t J) const {
    return std::span(Members).subspan(Begin[J], Begin[J + 1] - Begin[J]);
  }
};

/// What a pipeline run reads of one target that no PipelineConfig
/// changes.  Per-codelet vectors are in PipelineInputs::Kept order.
struct TargetInputs {
  /// Ground truth: in-application seconds per invocation.
  std::vector<double> Real;
  /// Standalone median seconds per invocation (what a representative
  /// contributes to the prediction).
  std::vector<double> StandaloneMedian;
  /// Standalone benchmarking seconds at the reduced invocation count.
  std::vector<double> BenchmarkSeconds;
  /// Table 5's full-suite and reduced-invocation times.
  double FullSuiteSeconds = 0.0;
  double ReducedInvocationSeconds = 0.0;
  /// Whole-application ground truth, one per PipelineInputs::Apps entry.
  std::vector<double> AppReal;
  /// Geometric-mean speedup of AppReal over the reference (0 when no
  /// application has a kept codelet).
  double RealGeomeanSpeedup = 0.0;
};

/// Everything a pipeline run reads that no PipelineConfig changes,
/// computed once per database instead of once per run (the Table 2 GA
/// makes about 80,000 runs over one database).  It holds plain values
/// only, so copying or moving the database keeps it valid.
struct PipelineInputs {
  /// Indices of codelets surviving the 1M-cycle profiling filter.
  std::vector<std::size_t> Kept;
  /// The kept codelets' full feature vectors, each column normalized
  /// over the kept rows, and the per-column stats.  Normalization works
  /// column by column, so projecting both onto a mask's columns gives
  /// the bits normalizing the masked table would.  Empty when no
  /// codelet is kept or a kept vector is not NumFeatures wide.
  FeatureTable Normalized;
  NormalizationStats Norm;
  /// Per kept codelet: the section 3.4 agreement test on the reference,
  /// the in-application reference seconds and the invocation count.
  std::vector<bool> WellBehaved;
  std::vector<double> RefTimes;
  std::vector<double> Invocations;
  AppMembers Apps;
  /// Whole-application reference seconds, one per Apps entry.
  std::vector<double> AppReference;
  /// One per database target.
  std::vector<TargetInputs> Targets;
};

/// Eagerly computed measurement store for one suite.
///
/// Both constructors also compute the database's PipelineInputs, which
/// take the kept set and the application grouping from the suite.  The
/// suite must not change while the database lives: its measurements and
/// those inputs are frozen at construction.
class MeasurementDatabase {
public:
  /// Profiles \p S on \p Reference and measures it on every machine in
  /// \p Targets.  \p S must outlive the database and must not change
  /// while it lives.  The simulator sweep fans out one work item per
  /// (codelet, machine, measurement kind) over \p Options.Threads
  /// threads, sharing one compile memo.
  MeasurementDatabase(const Suite &S, Machine Reference,
                      std::vector<Machine> Targets,
                      const TimingPolicy &Policy = {},
                      const DatabaseOptions &Options = {});

  /// Reassembles a database from previously computed measurements (the
  /// fgbs.meas.v1 cache loader).  The vectors must be mutually
  /// consistent: one profile/standalone per codelet of \p S, one
  /// [target][codelet] grid per machine in \p Targets, and every
  /// CodeletProfile::C pointing into \p S.  As for the simulating
  /// constructor, \p S must outlive the database and must not change
  /// while it lives.
  MeasurementDatabase(const Suite &S, Machine Reference,
                      std::vector<Machine> Targets,
                      std::vector<CodeletProfile> Profiles,
                      std::vector<std::vector<Measurement>> RealTarget,
                      std::vector<StandaloneMeasurement> StandaloneOnRef,
                      std::vector<std::vector<StandaloneMeasurement>>
                          StandaloneOnTarget);

  const Suite &suite() const { return *TheSuite; }
  const Machine &reference() const { return Reference; }
  const std::vector<Machine> &targets() const { return Targets; }

  std::size_t numCodelets() const { return Profiles.size(); }

  /// The step-B profile (reference, in application, features).
  const CodeletProfile &profile(std::size_t Codelet) const {
    return Profiles[Codelet];
  }

  /// The codelet object behind index \p Codelet.
  const Codelet &codelet(std::size_t Codelet) const {
    return *Profiles[Codelet].C;
  }

  /// Ground truth: measured in-application per-invocation seconds of
  /// codelet \p Codelet on target \p Target.
  double realTargetSeconds(std::size_t Codelet, std::size_t Target) const {
    return RealTarget[Target][Codelet].MeasuredSeconds;
  }

  /// Full in-application measurement on a target.
  const Measurement &realTargetMeasurement(std::size_t Codelet,
                                           std::size_t Target) const {
    return RealTarget[Target][Codelet];
  }

  /// Standalone microbenchmark measurement on the reference machine
  /// (used by the 10% well-behaved test).
  const StandaloneMeasurement &standaloneRef(std::size_t Codelet) const {
    return StandaloneOnRef[Codelet];
  }

  /// Standalone microbenchmark measurement on target \p Target.
  const StandaloneMeasurement &standaloneTarget(std::size_t Codelet,
                                                std::size_t Target) const {
    return StandaloneOnTarget[Target][Codelet];
  }

  /// Indices of codelets surviving the 1M-cycle profiling filter.
  const std::vector<std::size_t> &keptCodelets() const {
    return Inputs.Kept;
  }

  /// The per-database pipeline inputs (see PipelineInputs).
  const PipelineInputs &pipelineInputs() const { return Inputs; }

  /// True when \p Codelet passes the section 3.4 agreement test on the
  /// reference machine.
  bool isWellBehavedOnRef(std::size_t Codelet) const;

private:
  /// Computes Inputs from the measurements; each constructor's last step.
  PipelineInputs computePipelineInputs() const;

  const Suite *TheSuite;
  Machine Reference;
  std::vector<Machine> Targets;
  std::vector<CodeletProfile> Profiles;
  /// [target][codelet]
  std::vector<std::vector<Measurement>> RealTarget;
  std::vector<StandaloneMeasurement> StandaloneOnRef;
  /// [target][codelet]
  std::vector<std::vector<StandaloneMeasurement>> StandaloneOnTarget;
  PipelineInputs Inputs;
};

} // namespace fgbs

#endif // FGBS_CORE_DATABASE_H
