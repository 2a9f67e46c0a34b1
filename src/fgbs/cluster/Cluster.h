//===- fgbs/cluster/Cluster.h - Clusterings and normalization --*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat clusterings over feature vectors, feature normalization, and the
/// centroid/medoid/variance helpers the method needs: features are
/// normalized to zero mean and unit variance (section 3.3), clusters are
/// summarized by centroids, and each cluster's representative is the
/// codelet closest to its centroid (section 3.4).
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CLUSTER_CLUSTER_H
#define FGBS_CLUSTER_CLUSTER_H

#include <cstddef>
#include <vector>

namespace fgbs {

/// A dataset: one feature vector per point (equal lengths).
using FeatureTable = std::vector<std::vector<double>>;

/// Per-column normalization statistics.
struct NormalizationStats {
  std::vector<double> Mean;
  std::vector<double> Std;
};

/// Computes per-column mean and standard deviation of \p Points.
NormalizationStats computeNormalization(const FeatureTable &Points);

/// Z-score normalizes \p Points: each column is centered on zero and
/// scaled to unit variance.  Zero-variance columns become all-zero (they
/// carry no clustering information).
FeatureTable normalizeFeatures(const FeatureTable &Points);

/// Normalizes \p Points in place with precomputed \p Stats (one entry
/// per column) and returns it: (x - Mean) / Std, or 0 where Std is 0.
/// normalizeFeatures(P) is normalizeFeatures(P, computeNormalization(P)).
FeatureTable normalizeFeatures(FeatureTable Points,
                               const NormalizationStats &Stats);

/// A flat clustering: assignment of each point to a cluster id in
/// [0, K).
struct Clustering {
  std::vector<int> Assignment;
  unsigned K = 0;

  /// Member point indices per cluster.
  std::vector<std::vector<std::size_t>> members() const;

  /// Number of points.
  std::size_t size() const { return Assignment.size(); }
};

/// Centroid (mean vector) of the given member points.
std::vector<double> centroidOf(const FeatureTable &Points,
                               const std::vector<std::size_t> &Members);

/// Index (into \p Members) of the member closest to the cluster centroid:
/// the paper's representative choice.  Ties break to the lowest index.
std::size_t medoidOf(const FeatureTable &Points,
                     const std::vector<std::size_t> &Members);

/// Total within-cluster sum of squared distances to centroids.
double withinClusterVariance(const FeatureTable &Points,
                             const Clustering &C);

/// Total sum of squares around the global centroid (the K=1 variance).
double totalVariance(const FeatureTable &Points);

} // namespace fgbs

#endif // FGBS_CLUSTER_CLUSTER_H
