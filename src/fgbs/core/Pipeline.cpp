//===- fgbs/core/Pipeline.cpp - Steps C-E orchestration -------------------===//

#include "fgbs/core/Pipeline.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace fgbs;

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

FeatureTable Pipeline::maskedPoints(NormalizationStats &Norm) const {
  const PipelineInputs &In = Db.pipelineInputs();
  FeatureTable Points;
  Points.reserve(In.Kept.size());
  if (!Config.Normalize) {
    for (std::size_t Index : In.Kept)
      Points.push_back(applyMask(Db.profile(Index).Features, Columns));
    // Identity stats: (x - 0) / 1 leaves raw features untouched, so result
    // consumers never need to branch on the Normalize knob.
    Norm.Mean.assign(Columns.size(), 0.0);
    Norm.Std.assign(Columns.size(), 1.0);
    return Points;
  }
  // The database normalized every column once; the mask only projects.
  for (const std::vector<double> &Row : In.Normalized)
    Points.push_back(applyMask(Row, Columns));
  Norm.Mean = applyMask(In.Norm.Mean, Columns);
  Norm.Std = applyMask(In.Norm.Std, Columns);
  return Points;
}

FeatureTable Pipeline::buildPoints() const {
  FGBS_TRACE_SPAN("pipeline.cluster.features");
  NormalizationStats Norm;
  return maskedPoints(Norm);
}

PipelineResult Pipeline::run() const {
  FGBS_TRACE_SPAN("pipeline.run");
  FGBS_COUNTER_ADD("pipeline.runs", 1);
  NormalizationStats Norm;
  FeatureTable Points = [&] {
    FGBS_TRACE_SPAN("pipeline.cluster.features");
    return maskedPoints(Norm);
  }();

  // Step C: hierarchical clustering and the elbow cut.
  Dendrogram Tree = [&] {
    FGBS_TRACE_SPAN("pipeline.cluster");
    return hierarchicalCluster(Points, Config.LinkageMethod);
  }();
  unsigned Elbow =
      elbowK(Points, Tree, Config.MaxK, Config.ElbowThreshold);
  unsigned K = Config.K > 0 ? Config.K : Elbow;
  K = std::min<unsigned>(K, static_cast<unsigned>(Points.size()));

  return evaluate(std::move(Points), std::move(Norm), Tree.cut(K), Elbow);
}

PipelineResult Pipeline::runWithClustering(const Clustering &Initial) const {
  assert(Initial.Assignment.size() == Db.keptCodelets().size() &&
         "clustering must cover the kept codelets");
  NormalizationStats Norm;
  FeatureTable Points = maskedPoints(Norm);
  return evaluate(std::move(Points), std::move(Norm), Initial,
                  /*ElbowChoice=*/0);
}

PipelineResult Pipeline::evaluate(FeatureTable Points, NormalizationStats Norm,
                                  Clustering Initial,
                                  unsigned ElbowChoice) const {
  const PipelineInputs &In = Db.pipelineInputs();
  PipelineResult R;
  R.Kept = In.Kept;
  R.Points = std::move(Points);
  R.Mask = Config.Features;
  R.Norm = std::move(Norm);
  R.ElbowK = ElbowChoice;
  R.InitialK = Initial.K;
  R.Initial = std::move(Initial);

  // --- Step D: representative selection --------------------------------
  {
    FGBS_TRACE_SPAN("pipeline.select");
    auto WellBehaved = [&In](std::size_t Local) {
      return In.WellBehaved[Local];
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
  R.Model = PredictionModel::build(In.RefTimes, R.Selection.Assignment,
                                   R.Selection.Representatives);

  // --- Evaluation against every target ----------------------------------
  // Everything the clustering does not change (the real times, the
  // suite-wide Table 5 sums, the real application times and geomean)
  // was computed with the database; only the prediction side is left.
  R.Targets.reserve(Db.targets().size());
  for (std::size_t T = 0; T < Db.targets().size(); ++T) {
    const TargetInputs &Tgt = In.Targets[T];
    TargetEvaluation Eval;
    Eval.MachineName = Db.targets()[T].Name;

    // Representatives measured standalone on the target.
    std::vector<double> RepTimes;
    RepTimes.reserve(R.Selection.Representatives.size());
    for (std::size_t Local : R.Selection.Representatives) {
      RepTimes.push_back(Tgt.StandaloneMedian[Local]);
      Eval.Reduction.RepresentativeSeconds += Tgt.BenchmarkSeconds[Local];
    }

    Eval.Predicted = R.Model.predict(RepTimes);
    Eval.Real = Tgt.Real;
    Eval.ErrorsPercent = predictionErrorsPercent(Eval.Predicted, Eval.Real);
    Eval.MedianErrorPercent = median(Eval.ErrorsPercent);
    Eval.AverageErrorPercent = mean(Eval.ErrorsPercent);

    // Benchmarking-reduction breakdown (Table 5).
    Eval.Reduction.FullSuiteSeconds = Tgt.FullSuiteSeconds;
    Eval.Reduction.ReducedInvocationSeconds = Tgt.ReducedInvocationSeconds;

    // Application-level aggregation, in suite application order.
    Eval.AppNames = In.Apps.Names;
    Eval.AppReference = In.AppReference;
    Eval.AppReal = Tgt.AppReal;
    Eval.AppPredicted.reserve(In.Apps.size());
    for (std::size_t J = 0; J < In.Apps.size(); ++J)
      Eval.AppPredicted.push_back(applicationTime(
          Eval.Predicted, In.Invocations, In.Apps.of(J), In.Apps.Coverage[J]));
    Eval.RealGeomeanSpeedup = Tgt.RealGeomeanSpeedup;
    if (!Eval.AppPredicted.empty())
      Eval.PredictedGeomeanSpeedup =
          geometricMeanSpeedup(Eval.AppReference, Eval.AppPredicted);

    R.Targets.push_back(std::move(Eval));
  }
  return R;
}
