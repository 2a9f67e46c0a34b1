//===- fgbs/cluster/Cluster.cpp - Clusterings and normalization -----------===//

#include "fgbs/cluster/Cluster.h"

#include "fgbs/support/Matrix.h"

#include <cassert>
#include <cmath>

using namespace fgbs;

NormalizationStats fgbs::computeNormalization(const FeatureTable &Points) {
  assert(!Points.empty() && "cannot normalize an empty table");
  std::size_t Dim = Points.front().size();
  NormalizationStats Stats;
  Stats.Mean.assign(Dim, 0.0);
  Stats.Std.assign(Dim, 0.0);

  double N = static_cast<double>(Points.size());
  for (const std::vector<double> &P : Points) {
    assert(P.size() == Dim && "ragged feature table");
    for (std::size_t D = 0; D < Dim; ++D)
      Stats.Mean[D] += P[D];
  }
  for (std::size_t D = 0; D < Dim; ++D)
    Stats.Mean[D] /= N;

  for (const std::vector<double> &P : Points)
    for (std::size_t D = 0; D < Dim; ++D) {
      double Diff = P[D] - Stats.Mean[D];
      Stats.Std[D] += Diff * Diff;
    }
  for (std::size_t D = 0; D < Dim; ++D)
    Stats.Std[D] = std::sqrt(Stats.Std[D] / N);
  return Stats;
}

FeatureTable fgbs::normalizeFeatures(const FeatureTable &Points) {
  return normalizeFeatures(Points, computeNormalization(Points));
}

FeatureTable fgbs::normalizeFeatures(FeatureTable Points,
                                     const NormalizationStats &Stats) {
  for (std::vector<double> &P : Points) {
    assert(P.size() == Stats.Mean.size() && P.size() == Stats.Std.size() &&
           "stats do not match the table width");
    for (std::size_t D = 0; D < P.size(); ++D)
      P[D] = Stats.Std[D] > 0.0 ? (P[D] - Stats.Mean[D]) / Stats.Std[D] : 0.0;
  }
  return Points;
}

std::vector<std::vector<std::size_t>> Clustering::members() const {
  // Count first so each member list is allocated once, at its size.
  std::vector<std::size_t> Count(K, 0);
  for (int Label : Assignment) {
    assert(Label >= 0 && static_cast<unsigned>(Label) < K &&
           "assignment out of range");
    ++Count[static_cast<std::size_t>(Label)];
  }
  std::vector<std::vector<std::size_t>> Out(K);
  for (std::size_t Cl = 0; Cl < K; ++Cl)
    Out[Cl].reserve(Count[Cl]);
  for (std::size_t I = 0; I < Assignment.size(); ++I)
    Out[static_cast<std::size_t>(Assignment[I])].push_back(I);
  return Out;
}

std::vector<double> fgbs::centroidOf(const FeatureTable &Points,
                                     const std::vector<std::size_t> &Members) {
  assert(!Members.empty() && "centroid of an empty cluster");
  std::size_t Dim = Points.front().size();
  std::vector<double> Centroid(Dim, 0.0);
  for (std::size_t Index : Members) {
    assert(Index < Points.size() && "member index out of range");
    for (std::size_t D = 0; D < Dim; ++D)
      Centroid[D] += Points[Index][D];
  }
  for (double &V : Centroid)
    V /= static_cast<double>(Members.size());
  return Centroid;
}

std::size_t fgbs::medoidOf(const FeatureTable &Points,
                           const std::vector<std::size_t> &Members) {
  std::vector<double> Centroid = centroidOf(Points, Members);
  std::size_t Best = 0;
  double BestDist = squaredDistance(Points[Members[0]], Centroid);
  for (std::size_t I = 1; I < Members.size(); ++I) {
    double Dist = squaredDistance(Points[Members[I]], Centroid);
    if (Dist < BestDist) {
      BestDist = Dist;
      Best = I;
    }
  }
  return Best;
}

double fgbs::withinClusterVariance(const FeatureTable &Points,
                                   const Clustering &C) {
  assert(Points.size() == C.Assignment.size() && "size mismatch");
  double Total = 0.0;
  for (const std::vector<std::size_t> &Members : C.members()) {
    if (Members.empty())
      continue;
    std::vector<double> Centroid = centroidOf(Points, Members);
    for (std::size_t Index : Members)
      Total += squaredDistance(Points[Index], Centroid);
  }
  return Total;
}

double fgbs::totalVariance(const FeatureTable &Points) {
  Clustering Single;
  Single.K = 1;
  Single.Assignment.assign(Points.size(), 0);
  return withinClusterVariance(Points, Single);
}
