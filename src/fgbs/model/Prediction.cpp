//===- fgbs/model/Prediction.cpp - Step E: prediction model ---------------===//

#include "fgbs/model/Prediction.h"

#include "fgbs/obs/Metrics.h"
#include "fgbs/support/Statistics.h"

#include <cassert>
#include <cmath>

using namespace fgbs;

PredictionModel
PredictionModel::build(const std::vector<double> &RefTimes,
                       const std::vector<int> &Assignment,
                       const std::vector<std::size_t> &Representatives) {
  assert(RefTimes.size() == Assignment.size() && "size mismatch");
  FGBS_COUNTER_ADD("model.builds", 1);
  PredictionModel Model;
  std::size_t N = RefTimes.size();
  std::size_t K = Representatives.size();
  Model.M = Matrix(N, K, 0.0);
  Model.Reps = Representatives;
  Model.Assign = Assignment;

  for (std::size_t I = 0; I < N; ++I) {
    int Cluster = Assignment[I];
    assert(Cluster >= 0 && static_cast<std::size_t>(Cluster) < K &&
           "assignment out of range");
    std::size_t Rep = Representatives[static_cast<std::size_t>(Cluster)];
    assert(Rep < N && "representative index out of range");
    assert(Assignment[Rep] == Cluster &&
           "representative must belong to its cluster");
    double RepRef = RefTimes[Rep];
    assert(RepRef > 0.0 && "representative reference time must be positive");
    Model.M.at(I, static_cast<std::size_t>(Cluster)) = RefTimes[I] / RepRef;
  }
  return Model;
}

std::vector<double>
PredictionModel::predict(const std::vector<double> &RepTargetTimes) const {
  assert(RepTargetTimes.size() == numClusters() && "one time per cluster");
  FGBS_COUNTER_ADD("model.predictions", 1);
  FGBS_COUNTER_ADD("model.predicted_codelets", M.rows());
  return M.multiply(RepTargetTimes);
}

std::vector<double>
fgbs::predictionErrorsPercent(const std::vector<double> &Predicted,
                              const std::vector<double> &Actual) {
  assert(Predicted.size() == Actual.size() && "size mismatch");
  std::vector<double> Errors(Predicted.size());
  for (std::size_t I = 0; I < Predicted.size(); ++I)
    Errors[I] = percentError(Predicted[I], Actual[I]);
  return Errors;
}

double fgbs::applicationTime(const std::vector<double> &CodeletTimes,
                             const std::vector<double> &InvocationCounts,
                             std::span<const std::size_t> Members,
                             double Coverage) {
  assert(CodeletTimes.size() == InvocationCounts.size() && "size mismatch");
  assert(Coverage > 0.0 && Coverage <= 1.0 && "coverage out of range");
  double Covered = 0.0;
  for (std::size_t I : Members) {
    assert(I < CodeletTimes.size() && "member out of range");
    Covered += CodeletTimes[I] * InvocationCounts[I];
  }
  return Covered / Coverage;
}

double fgbs::geometricMeanSpeedup(const std::vector<double> &RefAppTimes,
                                  const std::vector<double> &TargetAppTimes) {
  assert(RefAppTimes.size() == TargetAppTimes.size() && "size mismatch");
  std::vector<double> Speedups(RefAppTimes.size());
  for (std::size_t I = 0; I < RefAppTimes.size(); ++I) {
    assert(TargetAppTimes[I] > 0.0 && "target time must be positive");
    Speedups[I] = RefAppTimes[I] / TargetAppTimes[I];
  }
  return geometricMean(Speedups);
}
