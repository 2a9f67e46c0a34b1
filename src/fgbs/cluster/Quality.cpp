//===- fgbs/cluster/Quality.cpp - Clustering quality metrics --------------===//

#include "fgbs/cluster/Quality.h"

#include "fgbs/support/Matrix.h"
#include "fgbs/support/Statistics.h"

#include <cassert>
#include <limits>

using namespace fgbs;

std::vector<double> fgbs::silhouetteValues(const FeatureTable &Points,
                                           const Clustering &C) {
  assert(Points.size() == C.Assignment.size() && "size mismatch");
  std::size_t N = Points.size();
  std::vector<std::vector<std::size_t>> Members = C.members();
  std::vector<double> Out(N, 0.0);

  for (std::size_t I = 0; I < N; ++I) {
    auto Own = static_cast<std::size_t>(C.Assignment[I]);
    if (Members[Own].size() < 2)
      continue; // Singleton: silhouette 0 by convention.

    // Mean intra-cluster distance (excluding the point itself).
    double A = 0.0;
    for (std::size_t J : Members[Own])
      if (J != I)
        A += euclideanDistance(Points[I], Points[J]);
    A /= static_cast<double>(Members[Own].size() - 1);

    // Smallest mean distance to any other cluster.
    double B = std::numeric_limits<double>::infinity();
    for (std::size_t K = 0; K < Members.size(); ++K) {
      if (K == Own || Members[K].empty())
        continue;
      double Mean = 0.0;
      for (std::size_t J : Members[K])
        Mean += euclideanDistance(Points[I], Points[J]);
      Mean /= static_cast<double>(Members[K].size());
      B = std::min(B, Mean);
    }

    double Denom = std::max(A, B);
    Out[I] = Denom > 0.0 ? (B - A) / Denom : 0.0;
  }
  return Out;
}

double fgbs::silhouetteScore(const FeatureTable &Points,
                             const Clustering &C) {
  assert(C.K >= 2 && "silhouette needs at least two clusters");
  return mean(silhouetteValues(Points, C));
}

unsigned fgbs::silhouetteK(const FeatureTable &Points, const Dendrogram &Tree,
                           unsigned MaxK) {
  std::size_t N = Points.size();
  MaxK = std::min<unsigned>(MaxK, static_cast<unsigned>(N));
  if (MaxK < 2)
    return 1;
  unsigned Best = 2;
  double BestScore = -2.0;
  for (unsigned K = 2; K <= MaxK; ++K) {
    double Score = silhouetteScore(Points, Tree.cut(K));
    if (Score > BestScore) {
      BestScore = Score;
      Best = K;
    }
  }
  return Best;
}
