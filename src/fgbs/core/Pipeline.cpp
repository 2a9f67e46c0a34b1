//===- fgbs/core/Pipeline.cpp - Steps C-E orchestration -------------------===//

#include "fgbs/core/Pipeline.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

using namespace fgbs;

namespace {

/// The kept codelets (local indices) of each suite application, grouped
/// by name as the per-application sums define it: an application owns
/// every kept codelet whose App names it, in kept order; an application
/// that repeats an earlier one's name has the same members; a codelet
/// whose App names no application belongs to none.
struct AppMembers {
  /// The first application with A's name (A itself when names differ).
  std::vector<std::size_t> Owner;
  /// Members grouped by owner: owner O's are [Begin[O], Begin[O + 1]).
  std::vector<std::size_t> Begin;
  std::vector<std::size_t> Members;

  /// Application A's members.
  std::span<const std::size_t> of(std::size_t A) const {
    return std::span(Members).subspan(Begin[Owner[A]],
                                      Begin[Owner[A] + 1] - Begin[Owner[A]]);
  }
};

AppMembers membersByApplication(const MeasurementDatabase &Db,
                                const std::vector<std::size_t> &Kept) {
  const std::vector<Application> &Apps = Db.suite().Applications;
  auto FirstNamed = [&Apps](const std::string &Name) {
    std::size_t A = 0;
    while (A < Apps.size() && Apps[A].Name != Name)
      ++A;
    return A; // Apps.size() when no application has the name.
  };
  AppMembers Out;
  Out.Owner.resize(Apps.size());
  for (std::size_t A = 0; A < Apps.size(); ++A)
    Out.Owner[A] = FirstNamed(Apps[A].Name);

  // Counting sort of the kept codelets by owner keeps kept order within
  // each application; slot Apps.size() collects the unnamed ones.
  std::vector<std::size_t> OwnerOf(Kept.size());
  Out.Begin.assign(Apps.size() + 2, 0);
  for (std::size_t I = 0; I < Kept.size(); ++I) {
    OwnerOf[I] = FirstNamed(Db.codelet(Kept[I]).App);
    ++Out.Begin[OwnerOf[I] + 1];
  }
  for (std::size_t A = 0; A <= Apps.size(); ++A)
    Out.Begin[A + 1] += Out.Begin[A];
  Out.Members.resize(Kept.size());
  std::vector<std::size_t> Next(Out.Begin.begin(), Out.Begin.end() - 1);
  for (std::size_t I = 0; I < Kept.size(); ++I)
    Out.Members[Next[OwnerOf[I]]++] = I;
  return Out;
}

} // namespace

PipelineConfig::PipelineConfig() {
  // The GA builds a config per fitness call, so the Table 2 names are
  // resolved once and every later config copies the mask.
  static const FeatureMask Table2 = maskForNames(kTable2FeatureNames);
  Features = Table2;
}

Pipeline::Pipeline(const MeasurementDatabase &Db, PipelineConfig Config)
    : Db(Db), Config(std::move(Config)),
      Columns(maskColumns(this->Config.Features)) {
  assert(this->Config.Features.size() == NumFeatures &&
         "feature mask must cover the catalog");
  assert(!Columns.empty() && "at least one feature must be selected");
}

FeatureTable
Pipeline::buildRawPoints(const std::vector<std::size_t> &Kept) const {
  FeatureTable Raw;
  Raw.reserve(Kept.size());
  for (std::size_t Index : Kept)
    Raw.push_back(applyMask(Db.profile(Index).Features, Columns));
  return Raw;
}

NormalizationStats Pipeline::normalize(FeatureTable &Points) const {
  NormalizationStats Norm;
  if (!Config.Normalize) {
    // Identity stats: (x - 0) / 1 leaves raw features untouched, so result
    // consumers never need to branch on the Normalize knob.
    Norm.Mean.assign(Columns.size(), 0.0);
    Norm.Std.assign(Columns.size(), 1.0);
    return Norm;
  }
  Norm = computeNormalization(Points);
  Points = normalizeFeatures(std::move(Points), Norm);
  return Norm;
}

FeatureTable Pipeline::buildPoints() const {
  FGBS_TRACE_SPAN("pipeline.cluster.features");
  FeatureTable Points = buildRawPoints(Db.keptCodelets());
  normalize(Points);
  return Points;
}

PipelineResult Pipeline::run() const {
  FGBS_TRACE_SPAN("pipeline.run");
  FGBS_COUNTER_ADD("pipeline.runs", 1);
  std::vector<std::size_t> Kept = Db.keptCodelets();
  FeatureTable Points = [&] {
    FGBS_TRACE_SPAN("pipeline.cluster.features");
    return buildRawPoints(Kept);
  }();
  NormalizationStats Norm = normalize(Points);

  // Step C: hierarchical clustering and the elbow cut.
  Dendrogram Tree = [&] {
    FGBS_TRACE_SPAN("pipeline.cluster");
    return hierarchicalCluster(Points, Config.LinkageMethod);
  }();
  unsigned Elbow =
      elbowK(Points, Tree, Config.MaxK, Config.ElbowThreshold);
  unsigned K = Config.K > 0 ? Config.K : Elbow;
  K = std::min<unsigned>(K, static_cast<unsigned>(Points.size()));

  return evaluate(std::move(Kept), std::move(Points), std::move(Norm),
                  Tree.cut(K), Elbow);
}

PipelineResult Pipeline::runWithClustering(const Clustering &Initial) const {
  std::vector<std::size_t> Kept = Db.keptCodelets();
  assert(Initial.Assignment.size() == Kept.size() &&
         "clustering must cover the kept codelets");
  FeatureTable Points = buildRawPoints(Kept);
  NormalizationStats Norm = normalize(Points);
  return evaluate(std::move(Kept), std::move(Points), std::move(Norm), Initial,
                  /*ElbowChoice=*/0);
}

PipelineResult Pipeline::evaluate(std::vector<std::size_t> Kept,
                                  FeatureTable Points, NormalizationStats Norm,
                                  Clustering Initial,
                                  unsigned ElbowChoice) const {
  PipelineResult R;
  R.Kept = std::move(Kept);
  R.Points = std::move(Points);
  R.Mask = Config.Features;
  R.Norm = std::move(Norm);
  R.ElbowK = ElbowChoice;
  R.InitialK = Initial.K;
  R.Initial = std::move(Initial);

  // --- Step D: representative selection --------------------------------
  {
    FGBS_TRACE_SPAN("pipeline.select");
    auto WellBehaved = [this, &R](std::size_t Local) {
      return Db.isWellBehavedOnRef(R.Kept[Local]);
    };
    if (Config.ReSelectIllBehaved) {
      R.Selection = selectRepresentatives(R.Points, R.Initial, WellBehaved,
                                          Config.MedoidRepresentative);
    } else {
      // Plain medoid (or first-member) choice with no agreement test.
      R.Selection.Assignment = R.Initial.Assignment;
      R.Selection.FinalK = R.Initial.K;
      for (const std::vector<std::size_t> &Members : R.Initial.members()) {
        assert(!Members.empty() && "empty cluster in initial clustering");
        std::size_t Pick =
            Config.MedoidRepresentative ? medoidOf(R.Points, Members) : 0;
        R.Selection.Representatives.push_back(Members[Pick]);
      }
    }
  }

  // A suite whose codelets are all ill-behaved yields no representatives
  // and cannot be predicted (paper: MG under per-application subsetting).
  if (R.Selection.FinalK == 0)
    return R;

  // --- Step E: prediction model -----------------------------------------
  FGBS_TRACE_SPAN("pipeline.predict");
  const std::size_t N = R.Kept.size();
  std::vector<double> RefTimes(N);
  std::vector<double> Invocations(N);
  for (std::size_t I = 0; I < N; ++I) {
    RefTimes[I] = Db.profile(R.Kept[I]).InApp.MeasuredSeconds;
    Invocations[I] =
        static_cast<double>(Db.codelet(R.Kept[I]).totalInvocations());
  }
  R.Model = PredictionModel::build(RefTimes, R.Selection.Assignment,
                                   R.Selection.Representatives);

  // Application membership, names and reference times do not depend on
  // the target: aggregate them once.
  const std::vector<Application> &Apps = Db.suite().Applications;
  const AppMembers Groups = membersByApplication(Db, R.Kept);
  std::vector<std::string> AppNames;
  std::vector<double> AppReference;
  for (std::size_t A = 0; A < Apps.size(); ++A) {
    std::span<const std::size_t> Members = Groups.of(A);
    if (Members.empty())
      continue;
    AppNames.push_back(Apps[A].Name);
    AppReference.push_back(
        applicationTime(RefTimes, Invocations, Members, Apps[A].Coverage));
  }

  // --- Evaluation against every target ----------------------------------
  R.Targets.reserve(Db.targets().size());
  for (std::size_t T = 0; T < Db.targets().size(); ++T) {
    TargetEvaluation Eval;
    Eval.MachineName = Db.targets()[T].Name;

    // Representatives measured standalone on the target.
    std::vector<double> RepTimes;
    RepTimes.reserve(R.Selection.Representatives.size());
    for (std::size_t Local : R.Selection.Representatives)
      RepTimes.push_back(Db.standaloneTarget(R.Kept[Local], T).MedianSeconds);

    Eval.Predicted = R.Model.predict(RepTimes);
    Eval.Real.resize(N);
    for (std::size_t I = 0; I < N; ++I)
      Eval.Real[I] = Db.realTargetSeconds(R.Kept[I], T);
    Eval.ErrorsPercent = predictionErrorsPercent(Eval.Predicted, Eval.Real);
    Eval.MedianErrorPercent = median(Eval.ErrorsPercent);
    Eval.AverageErrorPercent = mean(Eval.ErrorsPercent);

    // Benchmarking-reduction breakdown (Table 5).
    for (std::size_t I = 0; I < N; ++I) {
      Eval.Reduction.FullSuiteSeconds += Eval.Real[I] * Invocations[I];
      Eval.Reduction.ReducedInvocationSeconds +=
          Db.standaloneTarget(R.Kept[I], T).TotalBenchmarkSeconds;
    }
    for (std::size_t Local : R.Selection.Representatives)
      Eval.Reduction.RepresentativeSeconds +=
          Db.standaloneTarget(R.Kept[Local], T).TotalBenchmarkSeconds;

    // Application-level aggregation, in suite application order.
    Eval.AppNames = AppNames;
    Eval.AppReference = AppReference;
    Eval.AppReal.reserve(AppNames.size());
    Eval.AppPredicted.reserve(AppNames.size());
    for (std::size_t A = 0; A < Apps.size(); ++A) {
      std::span<const std::size_t> Members = Groups.of(A);
      if (Members.empty())
        continue;
      double Coverage = Apps[A].Coverage;
      Eval.AppReal.push_back(
          applicationTime(Eval.Real, Invocations, Members, Coverage));
      Eval.AppPredicted.push_back(
          applicationTime(Eval.Predicted, Invocations, Members, Coverage));
    }
    Eval.RealGeomeanSpeedup =
        geometricMeanSpeedup(Eval.AppReference, Eval.AppReal);
    Eval.PredictedGeomeanSpeedup =
        geometricMeanSpeedup(Eval.AppReference, Eval.AppPredicted);

    R.Targets.push_back(std::move(Eval));
  }
  return R;
}
