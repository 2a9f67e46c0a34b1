//===- fgbs/cluster/Quality.h - Clustering quality metrics -----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clustering-quality metrics beyond the paper's within-cluster variance:
/// silhouette scores (Rousseeuw) and a silhouette-based alternative to
/// the Elbow K selection, plus the Calinski-Harabasz index.  Used by the
/// design-choice ablation to check how sensitive the method is to the
/// K-selection rule the paper picked.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CLUSTER_QUALITY_H
#define FGBS_CLUSTER_QUALITY_H

#include "fgbs/cluster/Hierarchical.h"

namespace fgbs {

/// Per-point silhouette values in [-1, 1]: (b - a) / max(a, b), where a
/// is the mean distance to the point's own cluster and b the mean
/// distance to the nearest other cluster.  Points in singleton clusters
/// score 0 by convention.
std::vector<double> silhouetteValues(const FeatureTable &Points,
                                     const Clustering &C);

/// Mean silhouette over all points.  Requires K >= 2.
double silhouetteScore(const FeatureTable &Points, const Clustering &C);

/// Selects K in [2, MaxK] maximizing the mean silhouette over the
/// dendrogram cuts — an alternative to elbowK().
unsigned silhouetteK(const FeatureTable &Points, const Dendrogram &Tree,
                     unsigned MaxK);

} // namespace fgbs

#endif // FGBS_CLUSTER_QUALITY_H
