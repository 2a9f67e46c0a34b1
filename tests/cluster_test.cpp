//===- tests/cluster_test.cpp - Normalization, Ward clustering, elbow -----===//

#include "fgbs/cluster/Hierarchical.h"

#include "fgbs/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

using namespace fgbs;

namespace {

/// Three well-separated Gaussian blobs in 2D, 10 points each.
FeatureTable threeBlobs(std::uint64_t Seed = 123) {
  Rng R(Seed);
  FeatureTable Points;
  const double Centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (const auto &Center : Centers)
    for (int I = 0; I < 10; ++I)
      Points.push_back(
          {Center[0] + R.normal(0.0, 0.3), Center[1] + R.normal(0.0, 0.3)});
  return Points;
}

} // namespace

TEST(Normalization, ZeroMeanUnitVariance) {
  FeatureTable Points = {{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}};
  FeatureTable Norm = normalizeFeatures(Points);
  for (std::size_t D = 0; D < 2; ++D) {
    double Mean = 0.0;
    double Var = 0.0;
    for (const auto &P : Norm)
      Mean += P[D];
    Mean /= 3.0;
    for (const auto &P : Norm)
      Var += (P[D] - Mean) * (P[D] - Mean);
    Var /= 3.0;
    EXPECT_NEAR(Mean, 0.0, 1e-12);
    EXPECT_NEAR(Var, 1.0, 1e-12);
  }
}

TEST(Normalization, ConstantColumnBecomesZero) {
  FeatureTable Points = {{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}};
  FeatureTable Norm = normalizeFeatures(Points);
  for (const auto &P : Norm)
    EXPECT_DOUBLE_EQ(P[0], 0.0);
}

TEST(Normalization, StatsComputed) {
  FeatureTable Points = {{2.0}, {4.0}, {6.0}};
  NormalizationStats S = computeNormalization(Points);
  EXPECT_DOUBLE_EQ(S.Mean[0], 4.0);
  EXPECT_NEAR(S.Std[0], std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(Clustering, MembersPartitionPoints) {
  Clustering C;
  C.K = 2;
  C.Assignment = {0, 1, 0, 1, 0};
  auto M = C.members();
  ASSERT_EQ(M.size(), 2u);
  EXPECT_EQ(M[0], (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(M[1], (std::vector<std::size_t>{1, 3}));
}

TEST(Clustering, CentroidAndMedoid) {
  FeatureTable Points = {{0.0}, {1.0}, {5.0}};
  std::vector<std::size_t> Members = {0, 1, 2};
  std::vector<double> C = centroidOf(Points, Members);
  EXPECT_DOUBLE_EQ(C[0], 2.0);
  // Closest to 2.0 is point 1 (value 1.0).
  EXPECT_EQ(medoidOf(Points, Members), 1u);
}

TEST(Clustering, VarianceZeroForSingletons) {
  FeatureTable Points = {{1.0}, {2.0}, {3.0}};
  Clustering C;
  C.K = 3;
  C.Assignment = {0, 1, 2};
  EXPECT_DOUBLE_EQ(withinClusterVariance(Points, C), 0.0);
}

TEST(Clustering, TotalVarianceMatchesSingleCluster) {
  FeatureTable Points = {{0.0}, {2.0}};
  EXPECT_DOUBLE_EQ(totalVariance(Points), 2.0); // (1)^2 + (1)^2.
}

TEST(Hierarchical, RecoverThreeBlobsWithWard) {
  FeatureTable Points = threeBlobs();
  Dendrogram Tree = hierarchicalCluster(Points, Linkage::Ward);
  Clustering C = Tree.cut(3);
  // Each blob of 10 consecutive points must share one label.
  for (int Blob = 0; Blob < 3; ++Blob)
    for (int I = 1; I < 10; ++I)
      EXPECT_EQ(C.Assignment[Blob * 10 + I], C.Assignment[Blob * 10])
          << "blob " << Blob;
  // And the three labels must differ.
  std::set<int> Labels(C.Assignment.begin(), C.Assignment.end());
  EXPECT_EQ(Labels.size(), 3u);
}

class AllLinkages : public ::testing::TestWithParam<Linkage> {};

TEST_P(AllLinkages, RecoversSeparatedBlobs) {
  FeatureTable Points = threeBlobs(77);
  Dendrogram Tree = hierarchicalCluster(Points, GetParam());
  Clustering C = Tree.cut(3);
  std::set<int> Labels(C.Assignment.begin(), C.Assignment.end());
  EXPECT_EQ(Labels.size(), 3u);
  for (int Blob = 0; Blob < 3; ++Blob)
    for (int I = 1; I < 10; ++I)
      EXPECT_EQ(C.Assignment[Blob * 10 + I], C.Assignment[Blob * 10]);
}

INSTANTIATE_TEST_SUITE_P(Linkages, AllLinkages,
                         ::testing::Values(Linkage::Ward, Linkage::Single,
                                           Linkage::Complete,
                                           Linkage::Average));

TEST(Dendrogram, ShapeValidation) {
  // Regression for the constructor assert's operator-precedence bug:
  // `A || B && C` bound as `A || (B && C)`, so an empty-leaves dendrogram
  // with nonempty merges slipped through the empty-leaves arm.
  std::vector<MergeStep> NoMerges;
  std::vector<MergeStep> OneMerge = {{0, 1, 1.0, 2}};
  std::vector<MergeStep> TwoMerges = {{0, 1, 1.0, 2}, {3, 2, 2.0, 3}};
  EXPECT_TRUE(Dendrogram::isValidShape(0, NoMerges));
  EXPECT_FALSE(Dendrogram::isValidShape(0, OneMerge));
  EXPECT_TRUE(Dendrogram::isValidShape(1, NoMerges));
  EXPECT_FALSE(Dendrogram::isValidShape(1, OneMerge));
  EXPECT_TRUE(Dendrogram::isValidShape(2, OneMerge));
  EXPECT_TRUE(Dendrogram::isValidShape(3, TwoMerges));
  EXPECT_FALSE(Dendrogram::isValidShape(3, OneMerge));
}

/// Random Gaussian points with distinct pairwise distances (almost
/// surely), for NN-chain vs naive equivalence checks.
FeatureTable randomPoints(std::size_t N, std::size_t Dim,
                          std::uint64_t Seed) {
  Rng R(Seed);
  FeatureTable Points(N, std::vector<double>(Dim));
  for (auto &P : Points)
    for (double &V : P)
      V = R.normal();
  return Points;
}

class ChainVsNaive : public ::testing::TestWithParam<Linkage> {};

TEST_P(ChainVsNaive, DendrogramsMatchMergeForMerge) {
  for (std::uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    for (std::size_t N : {2u, 3u, 7u, 17u, 33u, 64u}) {
      FeatureTable Points = randomPoints(N, 6, Seed * 1000 + N);
      Dendrogram Chain = hierarchicalCluster(Points, GetParam());
      Dendrogram Naive = hierarchicalClusterNaive(Points, GetParam());
      ASSERT_EQ(Chain.numLeaves(), Naive.numLeaves());
      ASSERT_EQ(Chain.merges().size(), Naive.merges().size());
      for (std::size_t I = 0; I < Chain.merges().size(); ++I) {
        const MergeStep &A = Chain.merges()[I];
        const MergeStep &B = Naive.merges()[I];
        EXPECT_EQ(A.Left, B.Left) << "merge " << I << " seed " << Seed;
        EXPECT_EQ(A.Right, B.Right) << "merge " << I << " seed " << Seed;
        EXPECT_EQ(A.Size, B.Size) << "merge " << I << " seed " << Seed;
        // Heights agree up to floating-point rounding: the two
        // algorithms apply the Lance-Williams updates in different
        // orders.
        EXPECT_NEAR(A.Height, B.Height,
                    1e-9 * std::max(1.0, std::abs(B.Height)))
            << "merge " << I << " seed " << Seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Linkages, ChainVsNaive,
                         ::testing::Values(Linkage::Ward, Linkage::Single,
                                           Linkage::Complete,
                                           Linkage::Average));

TEST(Hierarchical, ElbowMatchesPerCutRecomputation) {
  // The incremental one-pass elbow must agree with recomputing the
  // within-cluster variance from scratch at every cut.
  for (std::uint64_t Seed : {11u, 22u, 33u}) {
    FeatureTable Points = randomPoints(40, 5, Seed);
    Dendrogram Tree = hierarchicalCluster(Points);
    for (double Threshold : {0.001, 0.01, 0.05, 0.2}) {
      double Tss = totalVariance(Points);
      unsigned Expected = 24;
      double Previous = Tss;
      for (unsigned K = 2; K <= 24; ++K) {
        double Wss = withinClusterVariance(Points, Tree.cut(K));
        if (Previous - Wss < Threshold * Tss) {
          Expected = K - 1;
          break;
        }
        Previous = Wss;
      }
      EXPECT_EQ(elbowK(Points, Tree, 24, Threshold), Expected)
          << "seed " << Seed << " threshold " << Threshold;
    }
  }
}

namespace {

/// Folds a dendrogram and its elbow choices into \p Hash: every merge's
/// children, size and height bits, then elbowK at two thresholds.
std::uint64_t foldClustering(std::uint64_t Hash, const FeatureTable &Points,
                             Linkage Method) {
  Dendrogram Tree = hierarchicalCluster(Points, Method);
  Hash = hashCombine(Hash, Points.size());
  for (const MergeStep &M : Tree.merges()) {
    Hash = hashCombine(Hash, static_cast<std::uint64_t>(M.Left));
    Hash = hashCombine(Hash, static_cast<std::uint64_t>(M.Right));
    Hash = hashCombine(Hash, M.Size);
    Hash = hashCombine(Hash, std::bit_cast<std::uint64_t>(M.Height));
  }
  for (double Threshold : {0.005, 0.05})
    Hash = hashCombine(Hash, elbowK(Points, Tree, 24, Threshold));
  return Hash;
}

std::string hex64(std::uint64_t Value) {
  char Buffer[20];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

/// Integer coordinates with repeated rows: zero distances and many equal
/// pairwise distances, so the chain's tie rules decide the merges.
FeatureTable duplicatedRows() {
  const std::vector<double> Rows[] = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {3, 0, 1}, {0, 0, 0},
      {1, 0, 0}, {3, 0, 1}, {5, 5, 5}, {0, 1, 0}, {2, 2, 2}, {5, 5, 5},
      {1, 1, 0}, {0, 0, 0}, {2, 2, 2}, {4, 4, 4}};
  return FeatureTable(std::begin(Rows), std::end(Rows));
}

const char *linkageName(Linkage Method) {
  switch (Method) {
  case Linkage::Ward:
    return "ward";
  case Linkage::Single:
    return "single";
  case Linkage::Complete:
    return "complete";
  case Linkage::Average:
    return "average";
  }
  return "?";
}

} // namespace

TEST(ClusterGolden, MergesAndElbowAreExact) {
  // Exact dendrograms recorded before the NN-chain scan was reworked:
  // every merge's Left, Right, Size and height bits, and elbowK, over
  // N in {1..9, 28, 67}, four widths and all four linkages.  ChainVsNaive
  // only compares heights to 1e-9; this pins them to the bit.
  struct Golden {
    std::size_t Dim;
    Linkage Method;
    const char *Hash;
  };
  const Golden Goldens[] = {
      {1, Linkage::Ward, "c6073ee6e84524af"},
      {1, Linkage::Single, "ee1fd69bee7a9b96"},
      {1, Linkage::Complete, "e423247b4662884d"},
      {1, Linkage::Average, "b6b1ef200b984c04"},
      {3, Linkage::Ward, "d866b72f0e9b2d57"},
      {3, Linkage::Single, "d8bc006a9ce8b045"},
      {3, Linkage::Complete, "1772c62c34172737"},
      {3, Linkage::Average, "af4647bc9f4abf05"},
      {38, Linkage::Ward, "23cc0f46e705a493"},
      {38, Linkage::Single, "9cdd41e0a6d13b8a"},
      {38, Linkage::Complete, "9e7fe496012368b3"},
      {38, Linkage::Average, "c401ccecb96eb6e6"},
      {76, Linkage::Ward, "0c70994122878178"},
      {76, Linkage::Single, "92d4499f13342470"},
      {76, Linkage::Complete, "3188ffd5fc7798b9"},
      {76, Linkage::Average, "c9b0b84fbf705dad"},
  };
  for (const Golden &G : Goldens) {
    std::uint64_t Hash = 0;
    for (std::size_t N : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 28u, 67u})
      Hash = foldClustering(
          Hash, randomPoints(N, G.Dim, 7000 + 100 * G.Dim + N), G.Method);
    EXPECT_EQ(hex64(Hash), G.Hash)
        << "dim " << G.Dim << " " << linkageName(G.Method);
  }

  const std::pair<Linkage, const char *> Duplicated[] = {
      {Linkage::Ward, "cadcad05a9d1ed94"},
      {Linkage::Single, "0422fce44fcd12d8"},
      {Linkage::Complete, "5ca423ab408474fa"},
      {Linkage::Average, "3e204498ac208d32"},
  };
  for (const auto &[Method, Expected] : Duplicated)
    EXPECT_EQ(hex64(foldClustering(0, duplicatedRows(), Method)), Expected)
        << "duplicated rows, " << linkageName(Method);
}

TEST(Hierarchical, CutBoundsRespected) {
  FeatureTable Points = threeBlobs();
  Dendrogram Tree = hierarchicalCluster(Points);
  EXPECT_EQ(Tree.cut(1).K, 1u);
  EXPECT_EQ(Tree.cut(0).K, 1u); // Clamped.
  EXPECT_EQ(Tree.cut(30).K, 30u);
  EXPECT_EQ(Tree.cut(100).K, 30u); // Clamped to leaf count.
}

TEST(Hierarchical, CutKGivesKLabels) {
  FeatureTable Points = threeBlobs();
  Dendrogram Tree = hierarchicalCluster(Points);
  for (unsigned K = 1; K <= 30; ++K) {
    Clustering C = Tree.cut(K);
    std::set<int> Labels(C.Assignment.begin(), C.Assignment.end());
    EXPECT_EQ(Labels.size(), K);
    EXPECT_EQ(*std::min_element(C.Assignment.begin(), C.Assignment.end()), 0);
    EXPECT_EQ(*std::max_element(C.Assignment.begin(), C.Assignment.end()),
              static_cast<int>(K) - 1);
  }
}

TEST(Hierarchical, WardHeightsMonotone) {
  FeatureTable Points = threeBlobs(99);
  Dendrogram Tree = hierarchicalCluster(Points, Linkage::Ward);
  const auto &Merges = Tree.merges();
  for (std::size_t I = 1; I < Merges.size(); ++I)
    EXPECT_GE(Merges[I].Height, Merges[I - 1].Height - 1e-9);
}

TEST(Hierarchical, WssDecreasesWithK) {
  FeatureTable Points = threeBlobs(55);
  Dendrogram Tree = hierarchicalCluster(Points);
  double Prev = withinClusterVariance(Points, Tree.cut(1));
  for (unsigned K = 2; K <= 10; ++K) {
    double Wss = withinClusterVariance(Points, Tree.cut(K));
    EXPECT_LE(Wss, Prev + 1e-9);
    Prev = Wss;
  }
}

TEST(Hierarchical, SinglePointDendrogram) {
  FeatureTable Points = {{1.0, 2.0}};
  Dendrogram Tree = hierarchicalCluster(Points);
  EXPECT_EQ(Tree.numLeaves(), 1u);
  Clustering C = Tree.cut(1);
  EXPECT_EQ(C.Assignment, (std::vector<int>{0}));
}

TEST(Hierarchical, ElbowFindsBlobCount) {
  FeatureTable Points = threeBlobs(31);
  Dendrogram Tree = hierarchicalCluster(Points);
  unsigned K = elbowK(Points, Tree, 24, 0.01);
  EXPECT_EQ(K, 3u);
}

TEST(Hierarchical, ElbowDegenerateCases) {
  FeatureTable Identical = {{1.0}, {1.0}, {1.0}};
  Dendrogram Tree = hierarchicalCluster(Identical);
  // Zero total variance: nothing to improve.
  EXPECT_EQ(elbowK(Identical, Tree, 10), 1u);
}

TEST(RandomClustering, ExactlyKNonEmpty) {
  for (unsigned K : {1u, 3u, 7u, 20u}) {
    Clustering C = randomClustering(20, K, /*Seed=*/K * 17);
    EXPECT_EQ(C.K, K);
    auto M = C.members();
    for (const auto &Members : M)
      EXPECT_FALSE(Members.empty());
  }
}

TEST(RandomClustering, DeterministicBySeed) {
  Clustering A = randomClustering(30, 5, 42);
  Clustering B = randomClustering(30, 5, 42);
  EXPECT_EQ(A.Assignment, B.Assignment);
  Clustering C = randomClustering(30, 5, 43);
  EXPECT_NE(A.Assignment, C.Assignment);
}
