//===- fgbs/service/SelectionService.cpp - Online query engine ------------===//

#include "fgbs/service/SelectionService.h"

#include "fgbs/model/Prediction.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/support/Matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace fgbs;
using namespace fgbs::service;

SelectionService::SelectionService(ModelSnapshot Model) : S(std::move(Model)) {
#ifndef NDEBUG
  std::string Message;
  assert(validateSnapshot(S, Message) == SnapshotError::None &&
         "SelectionService requires a validated snapshot");
#endif
  for (std::size_t F = 0; F < S.Mask.size(); ++F)
    if (S.Mask[F])
      Selected.push_back(F);
}

std::vector<double>
SelectionService::normalize(const std::vector<double> &Features) const {
  assert(Features.size() == S.numFeatures() &&
         "query must carry the full catalog vector");
  std::vector<double> Out(Selected.size());
  for (std::size_t D = 0; D < Selected.size(); ++D) {
    double V = Features[Selected[D]];
    // Same arithmetic as normalizeFeatures(): zero-variance columns
    // carry no information and map to 0.
    Out[D] = S.Norm.Std[D] > 0.0 ? (V - S.Norm.Mean[D]) / S.Norm.Std[D] : 0.0;
  }
  return Out;
}

ClassifyResult
SelectionService::classify(const std::vector<double> &Features) const {
  FGBS_SCOPED_TIMER("service.classify");
  FGBS_COUNTER_ADD("service.classify.requests", 1);
  std::vector<double> Point = normalize(Features);

  std::size_t Best = 0;
  double BestDist = squaredDistance(Point, S.Centroids[0]);
  for (std::size_t K = 1; K < S.Centroids.size(); ++K) {
    double Dist = squaredDistance(Point, S.Centroids[K]);
    if (Dist < BestDist) {
      BestDist = Dist;
      Best = K;
    }
  }

  ClassifyResult R;
  R.Cluster = static_cast<unsigned>(Best);
  R.Distance = std::sqrt(BestDist);
  R.Representative = S.Representatives[Best];
  R.RepresentativeName = S.CodeletNames[R.Representative];
  return R;
}

PredictResult SelectionService::predictTimes(const QueryRequest &Q) const {
  FGBS_SCOPED_TIMER("service.predict");
  FGBS_COUNTER_ADD("service.predict.requests", 1);
  assert(Q.ReferenceSeconds > 0.0 &&
         "time prediction needs a positive reference measurement");

  PredictResult R;
  R.Classified = classify(Q.Features);
  std::size_t Cluster = R.Classified.Cluster;
  double RepRef = S.ReferenceSeconds[S.Representatives[Cluster]];

  R.PredictedSeconds.reserve(S.Targets.size());
  R.Speedups.reserve(S.Targets.size());
  for (const SnapshotTarget &T : S.Targets) {
    // Mirrors PredictionModel exactly: M(i,k) = ref_i / ref_rep, then
    // M(i,k) * rep_target — same operation order, same rounding.
    double Predicted =
        (Q.ReferenceSeconds / RepRef) * T.RepresentativeSeconds[Cluster];
    R.PredictedSeconds.push_back(Predicted);
    R.Speedups.push_back(Predicted > 0.0 ? Q.ReferenceSeconds / Predicted
                                         : 0.0);
  }
  return R;
}

std::vector<MachineRank>
SelectionService::rankMachines(const std::vector<QueryRequest> &Queries) const {
  FGBS_SCOPED_TIMER("service.rank");
  FGBS_COUNTER_ADD("service.rank.requests", 1);
  std::vector<PredictResult> Results;
  Results.reserve(Queries.size());
  for (const QueryRequest &Q : Queries)
    Results.push_back(predictTimes(Q));

  std::vector<MachineRank> Ranking;
  Ranking.reserve(S.Targets.size());
  for (std::size_t T = 0; T < S.Targets.size(); ++T) {
    std::vector<double> Ref;
    std::vector<double> Predicted;
    Ref.reserve(Queries.size());
    Predicted.reserve(Queries.size());
    for (std::size_t Q = 0; Q < Queries.size(); ++Q) {
      Ref.push_back(Queries[Q].ReferenceSeconds);
      Predicted.push_back(Results[Q].PredictedSeconds[T]);
    }
    MachineRank Rank;
    Rank.MachineName = S.Targets[T].MachineName;
    Rank.GeomeanSpeedup = geometricMeanSpeedup(Ref, Predicted);
    Ranking.push_back(std::move(Rank));
  }
  // Best machine first; stable so equal speedups keep snapshot order.
  std::stable_sort(Ranking.begin(), Ranking.end(),
                   [](const MachineRank &A, const MachineRank &B) {
                     return A.GeomeanSpeedup > B.GeomeanSpeedup;
                   });
  return Ranking;
}
