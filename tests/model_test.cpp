//===- tests/model_test.cpp - Prediction model and metrics ----------------===//

#include "fgbs/model/Prediction.h"

#include <gtest/gtest.h>

using namespace fgbs;

namespace {

/// Four codelets, two clusters; representatives are 0 and 2.
PredictionModel demoModel() {
  std::vector<double> RefTimes = {2.0, 4.0, 1.0, 3.0};
  std::vector<int> Assignment = {0, 0, 1, 1};
  std::vector<std::size_t> Reps = {0, 2};
  return PredictionModel::build(RefTimes, Assignment, Reps);
}

} // namespace

TEST(PredictionModel, MatrixShapeAndSparsity) {
  PredictionModel M = demoModel();
  EXPECT_EQ(M.numCodelets(), 4u);
  EXPECT_EQ(M.numClusters(), 2u);
  // Each row has exactly one nonzero, in its cluster's column.
  EXPECT_DOUBLE_EQ(M.matrix().at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(M.matrix().at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(M.matrix().at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(M.matrix().at(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(M.matrix().at(3, 1), 3.0);
}

TEST(PredictionModel, RepresentativePredictedExactly) {
  PredictionModel M = demoModel();
  // Representatives measured on the target.
  std::vector<double> RepTimes = {1.0, 0.5};
  std::vector<double> Pred = M.predict(RepTimes);
  EXPECT_DOUBLE_EQ(Pred[0], 1.0);
  EXPECT_DOUBLE_EQ(Pred[2], 0.5);
}

TEST(PredictionModel, SiblingsScaledByRefRatio) {
  PredictionModel M = demoModel();
  std::vector<double> Pred = M.predict({1.0, 0.5});
  // Codelet 1 is 2x the representative on the reference -> 2x on target.
  EXPECT_DOUBLE_EQ(Pred[1], 2.0);
  EXPECT_DOUBLE_EQ(Pred[3], 1.5);
}

TEST(PredictionModel, SpeedupFormulaEquivalence) {
  // t_tar(i) = t_ref(i) / s(rep),  s(rep) = t_ref(rep) / t_tar(rep).
  std::vector<double> RefTimes = {6.0, 9.0};
  PredictionModel M =
      PredictionModel::build(RefTimes, {0, 0}, {0});
  double RepTarget = 2.0; // Speedup 3.
  std::vector<double> Pred = M.predict({RepTarget});
  EXPECT_DOUBLE_EQ(Pred[1], 9.0 / 3.0);
}

TEST(PredictionModel, LinearInRepTimes) {
  PredictionModel M = demoModel();
  std::vector<double> A = M.predict({1.0, 1.0});
  std::vector<double> B = M.predict({2.0, 2.0});
  for (std::size_t I = 0; I < A.size(); ++I)
    EXPECT_DOUBLE_EQ(B[I], 2.0 * A[I]);
}

TEST(Metrics, PredictionErrorsPercent) {
  std::vector<double> Err =
      predictionErrorsPercent({110.0, 90.0, 100.0}, {100.0, 100.0, 100.0});
  EXPECT_DOUBLE_EQ(Err[0], 10.0);
  EXPECT_DOUBLE_EQ(Err[1], 10.0);
  EXPECT_DOUBLE_EQ(Err[2], 0.0);
}

TEST(Metrics, ApplicationTimeCoverage) {
  // 2 codelets x (time x invocations) = 10s covered, 92% coverage.
  std::vector<std::size_t> Members = {0, 1};
  double T = applicationTime({1.0, 2.0}, {4.0, 3.0}, Members, 0.92);
  EXPECT_NEAR(T, 10.0 / 0.92, 1e-12);
}

TEST(Metrics, ApplicationTimeFullCoverage) {
  std::vector<std::size_t> Members = {0};
  EXPECT_DOUBLE_EQ(applicationTime({5.0}, {2.0}, Members, 1.0), 10.0);
}

TEST(Metrics, ApplicationTimeSumsOnlyItsMembers) {
  // Codelets 1 and 3 of a four-codelet suite; 0 and 2 belong to another
  // application.
  std::vector<double> Times = {100.0, 2.0, 7.0, 1.0};
  std::vector<double> Invocations = {1.0, 3.0, 1.0, 4.0};
  std::vector<std::size_t> Members = {1, 3};
  EXPECT_DOUBLE_EQ(applicationTime(Times, Invocations, Members, 0.5), 20.0);
}

TEST(Metrics, GeomeanSpeedup) {
  // Speedups 2 and 8 -> geomean 4.
  EXPECT_NEAR(geometricMeanSpeedup({2.0, 8.0}, {1.0, 1.0}), 4.0, 1e-12);
  // Slowdowns compose symmetrically.
  EXPECT_NEAR(geometricMeanSpeedup({1.0, 1.0}, {2.0, 8.0}), 0.25, 1e-12);
}

TEST(Metrics, ReductionBreakdownFactors) {
  ReductionBreakdown R;
  R.FullSuiteSeconds = 4430.0;
  R.ReducedInvocationSeconds = 369.0;
  R.RepresentativeSeconds = 100.0;
  EXPECT_NEAR(R.invocationFactor(), 12.0, 0.01);
  EXPECT_NEAR(R.clusteringFactor(), 3.69, 0.01);
  EXPECT_NEAR(R.totalFactor(), 44.3, 0.01);
  // total = invocation x clustering.
  EXPECT_NEAR(R.totalFactor(),
              R.invocationFactor() * R.clusteringFactor(), 1e-9);
}

TEST(Metrics, ReductionBreakdownEmpty) {
  ReductionBreakdown R;
  EXPECT_DOUBLE_EQ(R.totalFactor(), 0.0);
  EXPECT_DOUBLE_EQ(R.invocationFactor(), 0.0);
  EXPECT_DOUBLE_EQ(R.clusteringFactor(), 0.0);
}
