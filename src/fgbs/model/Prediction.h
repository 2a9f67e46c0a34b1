//===- fgbs/model/Prediction.h - Step E: prediction model ------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Step E: extrapolate full-suite results from representative
/// measurements (paper section 3.5).
///
/// Codelets of a cluster are assumed to share their representative's
/// speedup between the reference and a target:
///     t_tar(i) ~= t_ref(i) / s(rep(k)),  s(r) = t_ref(r) / t_tar(r)
/// In matrix form t_all = M . t_repr with M(i,k) = t_ref(i)/t_ref(rep_k)
/// for i in cluster k, 0 elsewhere.
///
/// Also here: the evaluation metrics of section 4.1 — per-codelet
/// prediction error, application-level aggregation (weighted by
/// invocation counts, scaled by codelet coverage), geometric-mean
/// speedups, and the benchmarking-reduction-factor breakdown of Table 5.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_MODEL_PREDICTION_H
#define FGBS_MODEL_PREDICTION_H

#include "fgbs/support/Matrix.h"

#include <cstddef>
#include <span>
#include <vector>

namespace fgbs {

/// The N x K extrapolation model.
class PredictionModel {
public:
  /// Builds the model from reference per-invocation times, a cluster
  /// assignment (values in [0, K)), and one representative index per
  /// cluster.  Representative reference times must be positive.
  static PredictionModel build(const std::vector<double> &RefTimes,
                               const std::vector<int> &Assignment,
                               const std::vector<std::size_t> &Representatives);

  /// Predicts per-codelet target times from the representatives'
  /// measured target times (one entry per cluster).
  std::vector<double> predict(const std::vector<double> &RepTargetTimes) const;

  /// The model matrix M (N rows, K columns).
  const Matrix &matrix() const { return M; }

  std::size_t numCodelets() const { return M.rows(); }
  std::size_t numClusters() const { return M.cols(); }

  const std::vector<std::size_t> &representatives() const { return Reps; }
  const std::vector<int> &assignment() const { return Assign; }

private:
  Matrix M;
  std::vector<std::size_t> Reps;
  std::vector<int> Assign;
};

/// Per-codelet prediction error, percent: |pred - real| / real * 100.
std::vector<double> predictionErrorsPercent(const std::vector<double> &Predicted,
                                            const std::vector<double> &Actual);

/// Application-level aggregation: given per-codelet times and invocation
/// counts, returns the time of the application made of the codelets
/// \p Members (indices into both vectors, summed in the order given),
/// scaled by codelet coverage (section 4.4: the uncovered part is assumed
/// to share the covered part's speedup, so T_app = sum(t_i * n_i) /
/// coverage).
double applicationTime(const std::vector<double> &CodeletTimes,
                       const std::vector<double> &InvocationCounts,
                       std::span<const std::size_t> Members, double Coverage);

/// Per-application speedup t_ref / t_tar, then the geometric mean over
/// applications (Figure 6).
double geometricMeanSpeedup(const std::vector<double> &RefAppTimes,
                            const std::vector<double> &TargetAppTimes);

/// The benchmarking-reduction breakdown of Table 5.
struct ReductionBreakdown {
  /// Full-suite benchmarking time on the target (every codelet, at its
  /// original invocation count).
  double FullSuiteSeconds = 0.0;
  /// All codelets at reduced invocation counts.
  double ReducedInvocationSeconds = 0.0;
  /// Representatives only, at reduced invocation counts.
  double RepresentativeSeconds = 0.0;

  /// Factor from reducing invocation counts alone.
  double invocationFactor() const {
    return ReducedInvocationSeconds > 0.0
               ? FullSuiteSeconds / ReducedInvocationSeconds
               : 0.0;
  }
  /// Factor from measuring only representatives.
  double clusteringFactor() const {
    return RepresentativeSeconds > 0.0
               ? ReducedInvocationSeconds / RepresentativeSeconds
               : 0.0;
  }
  /// Overall reduction factor.
  double totalFactor() const {
    return RepresentativeSeconds > 0.0
               ? FullSuiteSeconds / RepresentativeSeconds
               : 0.0;
  }
};

} // namespace fgbs

#endif // FGBS_MODEL_PREDICTION_H
