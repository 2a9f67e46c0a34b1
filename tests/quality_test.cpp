//===- tests/quality_test.cpp - Silhouette, CH index, rendering -----------===//

#include "fgbs/cluster/Quality.h"
#include "fgbs/cluster/Render.h"

#include "fgbs/support/Rng.h"

#include <gtest/gtest.h>

using namespace fgbs;

namespace {

FeatureTable twoBlobs(std::uint64_t Seed = 11) {
  Rng R(Seed);
  FeatureTable Points;
  for (int I = 0; I < 8; ++I)
    Points.push_back({R.normal(0.0, 0.2), R.normal(0.0, 0.2)});
  for (int I = 0; I < 8; ++I)
    Points.push_back({R.normal(8.0, 0.2), R.normal(8.0, 0.2)});
  return Points;
}

Clustering perfectSplit() {
  Clustering C;
  C.K = 2;
  C.Assignment.assign(16, 0);
  for (int I = 8; I < 16; ++I)
    C.Assignment[I] = 1;
  return C;
}

Clustering badSplit() {
  Clustering C;
  C.K = 2;
  // Alternating labels: each cluster straddles both blobs.
  C.Assignment.resize(16);
  for (int I = 0; I < 16; ++I)
    C.Assignment[I] = I % 2;
  return C;
}

} // namespace

TEST(Silhouette, PerfectSplitNearOne) {
  FeatureTable Points = twoBlobs();
  double Score = silhouetteScore(Points, perfectSplit());
  EXPECT_GT(Score, 0.9);
}

TEST(Silhouette, BadSplitNearZeroOrNegative) {
  FeatureTable Points = twoBlobs();
  double Good = silhouetteScore(Points, perfectSplit());
  double Bad = silhouetteScore(Points, badSplit());
  EXPECT_LT(Bad, Good);
  EXPECT_LT(Bad, 0.2);
}

TEST(Silhouette, ValuesInRange) {
  FeatureTable Points = twoBlobs(5);
  for (const Clustering &C : {perfectSplit(), badSplit()})
    for (double V : silhouetteValues(Points, C)) {
      EXPECT_GE(V, -1.0);
      EXPECT_LE(V, 1.0);
    }
}

TEST(Silhouette, SingletonScoresZero) {
  FeatureTable Points = {{0.0}, {1.0}, {10.0}};
  Clustering C;
  C.K = 2;
  C.Assignment = {0, 0, 1}; // Point 2 is a singleton.
  std::vector<double> V = silhouetteValues(Points, C);
  EXPECT_DOUBLE_EQ(V[2], 0.0);
  EXPECT_GT(V[0], 0.0);
}

TEST(Silhouette, SelectsBlobCount) {
  FeatureTable Points = twoBlobs(42);
  Dendrogram Tree = hierarchicalCluster(Points);
  EXPECT_EQ(silhouetteK(Points, Tree, 10), 2u);
}

TEST(RenderDendrogram, ContainsAllLabels) {
  FeatureTable Points = {{0.0}, {1.0}, {10.0}, {11.0}};
  Dendrogram Tree = hierarchicalCluster(Points);
  std::string Out =
      renderDendrogram(Tree, {"alpha", "beta", "gamma", "delta"});
  for (const char *Label : {"alpha", "beta", "gamma", "delta"})
    EXPECT_NE(Out.find(Label), std::string::npos) << Label;
  // Three merges -> three height lines.
  std::size_t Heights = 0;
  for (std::size_t P = Out.find("h="); P != std::string::npos;
       P = Out.find("h=", P + 1))
    ++Heights;
  EXPECT_EQ(Heights, 3u);
}

TEST(RenderDendrogram, MarksCut) {
  FeatureTable Points = {{0.0}, {1.0}, {10.0}, {11.0}};
  Dendrogram Tree = hierarchicalCluster(Points);
  std::string NoCut = renderDendrogram(Tree, {"a", "b", "c", "d"});
  EXPECT_EQ(NoCut.find("<-- cut"), std::string::npos);
  std::string Cut2 = renderDendrogram(Tree, {"a", "b", "c", "d"}, 2);
  // Cutting into 2 clusters undoes exactly the last merge.
  std::size_t Marks = 0;
  for (std::size_t P = Cut2.find("<-- cut"); P != std::string::npos;
       P = Cut2.find("<-- cut", P + 1))
    ++Marks;
  EXPECT_EQ(Marks, 1u);
}

TEST(RenderDendrogram, SingleLeaf) {
  FeatureTable Points = {{1.0}};
  Dendrogram Tree = hierarchicalCluster(Points);
  EXPECT_EQ(renderDendrogram(Tree, {"only"}), "only\n");
}
