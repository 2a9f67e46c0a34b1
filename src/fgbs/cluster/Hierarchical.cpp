//===- fgbs/cluster/Hierarchical.cpp - Agglomerative clustering -----------===//

#include "fgbs/cluster/Hierarchical.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Matrix.h"
#include "fgbs/support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

using namespace fgbs;

bool Dendrogram::isValidShape(std::size_t NumLeaves,
                              const std::vector<MergeStep> &Merges) {
  if (NumLeaves == 0)
    return Merges.empty();
  return Merges.size() == NumLeaves - 1;
}

Dendrogram::Dendrogram(std::size_t NumLeaves, std::vector<MergeStep> Steps)
    : Leaves(NumLeaves), Merges(std::move(Steps)) {
  assert(isValidShape(Leaves, Merges) && "a dendrogram has N-1 merges");
}

Clustering Dendrogram::cut(unsigned K) const {
  Clustering Result;
  std::size_t N = Leaves;
  assert(N > 0 && "cut of an empty dendrogram");
  K = std::max(1u, std::min<unsigned>(K, static_cast<unsigned>(N)));
  Result.K = K;

  // Union-find over node ids (leaves then internal nodes).
  std::vector<int> Parent(N + Merges.size());
  std::iota(Parent.begin(), Parent.end(), 0);
  auto Find = [&Parent](int X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };

  std::size_t Applied = N - K;
  for (std::size_t I = 0; I < Applied; ++I) {
    int Node = static_cast<int>(N + I);
    Parent[Find(Merges[I].Left)] = Node;
    Parent[Find(Merges[I].Right)] = Node;
  }

  // Relabel roots to [0, K) in leaf order.
  Result.Assignment.assign(N, -1);
  std::vector<int> RootLabel(Parent.size(), -1);
  int NextLabel = 0;
  for (std::size_t Leaf = 0; Leaf < N; ++Leaf) {
    int Root = Find(static_cast<int>(Leaf));
    if (RootLabel[Root] < 0)
      RootLabel[Root] = NextLabel++;
    Result.Assignment[Leaf] = RootLabel[Root];
  }
  assert(NextLabel == static_cast<int>(K) && "cut produced wrong K");
  return Result;
}

namespace {

/// Row bases of a condensed upper-triangular distance matrix over N
/// points: entry (I, J), I < J, lives at Base[I] + J.  Base[I] is the
/// condensed index I * (2N - I - 1) / 2 + (J - I - 1) with the J term
/// taken out; for I = 0 it wraps below zero, and the unsigned sum with
/// J >= 1 wraps back.
std::vector<std::size_t> condensedRowBases(std::size_t N) {
  std::vector<std::size_t> Base(N);
  for (std::size_t I = 0; I < N; ++I)
    Base[I] = I * (2 * N - I - 1) / 2 - I - 1;
  return Base;
}

/// Lance-Williams dissimilarity between the merger of clusters I and J
/// (sizes NI, NJ, mutual dissimilarity DIJ) and cluster K (size NK).
inline double lanceWilliams(Linkage Method, double DIK, double DJK,
                            double DIJ, double NI, double NJ, double NK) {
  switch (Method) {
  case Linkage::Ward:
    return ((NI + NK) * DIK + (NJ + NK) * DJK - NK * DIJ) / (NI + NJ + NK);
  case Linkage::Single:
    return std::min(DIK, DJK);
  case Linkage::Complete:
    return std::max(DIK, DJK);
  case Linkage::Average:
    return (NI * DIK + NJ * DJK) / (NI + NJ);
  }
  return 0.0; // Unreachable; silences -Wreturn-type.
}

/// A raw NN-chain merge: the two cluster slots joined (a slot is the
/// smallest leaf index in its cluster) at dissimilarity Dist.
struct RawMerge {
  std::size_t A;
  std::size_t B;
  double Dist;
};

/// Rewrites chain-order merges into the canonical dendrogram: merges
/// sorted by height (stable, so equal heights keep the chain's
/// topologically valid order), children ordered so the cluster holding
/// the smallest leaf comes first — exactly the order the naive
/// closest-pair scan emits when all dissimilarities are distinct.
std::vector<MergeStep> canonicalize(std::size_t N, std::vector<RawMerge> Raw,
                                    bool Squared) {
  std::vector<std::size_t> Order(Raw.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&Raw](std::size_t X, std::size_t Y) {
                     return Raw[X].Dist < Raw[Y].Dist;
                   });

  // Union-find over leaves; each root tracks its current dendrogram node
  // id and smallest contained leaf.
  std::vector<std::size_t> Parent(N);
  std::iota(Parent.begin(), Parent.end(), 0);
  auto Find = [&Parent](std::size_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  std::vector<int> Node(N);
  std::iota(Node.begin(), Node.end(), 0);
  std::vector<unsigned> Size(N, 1);

  std::vector<MergeStep> Merges;
  Merges.reserve(Raw.size());
  for (std::size_t Index : Order) {
    std::size_t RootA = Find(Raw[Index].A);
    std::size_t RootB = Find(Raw[Index].B);
    assert(RootA != RootB && "merge joins a cluster with itself");
    // Roots are each cluster's smallest leaf, so they order the children.
    std::size_t Lo = std::min(RootA, RootB);
    std::size_t Hi = std::max(RootA, RootB);
    double Height =
        Squared ? std::sqrt(std::max(0.0, Raw[Index].Dist)) : Raw[Index].Dist;
    Merges.push_back({Node[Lo], Node[Hi], Height, Size[Lo] + Size[Hi]});
    Parent[Hi] = Lo;
    Node[Lo] = static_cast<int>(N + Merges.size() - 1);
    Size[Lo] += Size[Hi];
  }
  return Merges;
}

/// Pairwise dissimilarities in condensed form: squared Euclidean for Ward
/// (the Lance-Williams recurrence is exact on squared distances),
/// Euclidean otherwise.  Four pairs (I, J..J+3) are summed side by side;
/// each sum still runs over its features in order, (a - b)^2 at a time,
/// so every entry is bit-identical to squaredDistance().
std::vector<double> condensedDistances(const FeatureTable &Points,
                                       bool Squared) {
  std::size_t N = Points.size();
  std::size_t Dim = Points.front().size();
  std::vector<double> Dist(N * (N - 1) / 2);
  auto Finish = [Squared](double D2) { return Squared ? D2 : std::sqrt(D2); };
  std::size_t Next = 0;
  for (std::size_t I = 0; I < N; ++I) {
    assert(Points[I].size() == Dim && "ragged feature table");
    const double *A = Points[I].data();
    std::size_t J = I + 1;
    for (; J + 4 <= N; J += 4) {
      const double *B0 = Points[J].data();
      const double *B1 = Points[J + 1].data();
      const double *B2 = Points[J + 2].data();
      const double *B3 = Points[J + 3].data();
      double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
      for (std::size_t D = 0; D < Dim; ++D) {
        double D0 = A[D] - B0[D];
        double D1 = A[D] - B1[D];
        double D2 = A[D] - B2[D];
        double D3 = A[D] - B3[D];
        S0 += D0 * D0;
        S1 += D1 * D1;
        S2 += D2 * D2;
        S3 += D3 * D3;
      }
      Dist[Next++] = Finish(S0);
      Dist[Next++] = Finish(S1);
      Dist[Next++] = Finish(S2);
      Dist[Next++] = Finish(S3);
    }
    for (; J < N; ++J)
      Dist[Next++] = Finish(squaredDistance(Points[I], Points[J]));
  }
  return Dist;
}

} // namespace

Dendrogram fgbs::hierarchicalCluster(const FeatureTable &Points,
                                     Linkage Method) {
  std::size_t N = Points.size();
  assert(N > 0 && "clustering an empty table");
  if (N == 1)
    return Dendrogram(1, {});

  FGBS_TRACE_SPAN("cluster.nn_chain");
  bool Squared = Method == Linkage::Ward;
  std::vector<double> Dist = condensedDistances(Points, Squared);

  const std::vector<std::size_t> Base = condensedRowBases(N);
  std::vector<unsigned char> Active(N, 1);
  std::vector<double> Size(N, 1.0);

  // Telemetry tallies, maintained per outer iteration so the scan and
  // Lance-Williams inner loops stay untouched.  ActiveCount tracks the
  // live clusters; each chain step scans ActiveCount - 1 distances,
  // each merge rewrites ActiveCount - 2 of them.
  std::size_t ActiveCount = N;
  std::size_t ChainSteps = 0;
  std::size_t DistanceEvals = 0;

  // Nearest-neighbor chain (Murtagh 1983).  Grow a chain of successive
  // nearest neighbors until it ends in a reciprocal pair, merge that
  // pair, and resume from the truncated chain.  All four linkages are
  // reducible, so merges never invalidate the remaining chain and every
  // reciprocal pair is a merge of the true dendrogram.  Each of the N-1
  // merges does O(N) work: O(N^2) total.
  std::vector<std::size_t> Chain;
  Chain.reserve(N);
  std::vector<RawMerge> Raw;
  Raw.reserve(N - 1);
  std::size_t Seed = 0; // Rolling start: first active slot.

  while (Raw.size() + 1 < N) {
    if (Chain.empty()) {
      while (!Active[Seed])
        ++Seed;
      Chain.push_back(Seed);
    }
    std::size_t Top = Chain.back();
    ++ChainSteps;
    DistanceEvals += ActiveCount - 1;

    // Nearest active neighbor of Top; prefer the chain predecessor on
    // ties (guarantees termination), then the lowest slot.  The scan runs
    // over ascending slots, column Top of the rows above it and then
    // Top's own row, and selects without branching: only a strictly
    // closer active slot replaces the current best.
    std::size_t Nearest = SIZE_MAX;
    double Best = std::numeric_limits<double>::infinity();
    if (Chain.size() >= 2) {
      Nearest = Chain[Chain.size() - 2];
      Best = Nearest < Top ? Dist[Base[Nearest] + Top]
                           : Dist[Base[Top] + Nearest];
    }
    auto Consider = [&](std::size_t K, double D) {
      bool Closer = Active[K] & (D < Best);
      Nearest = Closer ? K : Nearest;
      Best = Closer ? D : Best;
    };
    for (std::size_t K = 0; K < Top; ++K)
      Consider(K, Dist[Base[K] + Top]);
    for (std::size_t K = Top + 1; K < N; ++K)
      Consider(K, Dist[Base[Top] + K]);

    if (Chain.size() >= 2 && Nearest == Chain[Chain.size() - 2]) {
      // Reciprocal pair: merge Top with its predecessor.  Each update
      // reads and writes only its own K's entries, so the three slot
      // ranges around Lo and Hi can go in any order.
      Chain.pop_back();
      Chain.pop_back();
      std::size_t Lo = std::min(Top, Nearest);
      std::size_t Hi = std::max(Top, Nearest);
      double NI = Size[Lo];
      double NJ = Size[Hi];
      auto Update = [&](std::size_t K, double &DLo, double DHi) {
        DLo = lanceWilliams(Method, DLo, DHi, Best, NI, NJ, Size[K]);
      };
      for (std::size_t K = 0; K < Lo; ++K)
        if (Active[K])
          Update(K, Dist[Base[K] + Lo], Dist[Base[K] + Hi]);
      for (std::size_t K = Lo + 1; K < Hi; ++K)
        if (Active[K])
          Update(K, Dist[Base[Lo] + K], Dist[Base[K] + Hi]);
      for (std::size_t K = Hi + 1; K < N; ++K)
        if (Active[K])
          Update(K, Dist[Base[Lo] + K], Dist[Base[Hi] + K]);
      Raw.push_back({Lo, Hi, Best});
      Size[Lo] += Size[Hi];
      Active[Hi] = 0;
      DistanceEvals += ActiveCount - 2;
      --ActiveCount;
    } else {
      Chain.push_back(Nearest);
    }
  }
  FGBS_COUNTER_ADD("cluster.merges", N - 1);
  FGBS_COUNTER_ADD("cluster.chain_steps", ChainSteps);
  FGBS_COUNTER_ADD("cluster.distance_evals", DistanceEvals);
  return Dendrogram(N, canonicalize(N, std::move(Raw), Squared));
}

Dendrogram fgbs::hierarchicalClusterNaive(const FeatureTable &Points,
                                          Linkage Method) {
  std::size_t N = Points.size();
  assert(N > 0 && "clustering an empty table");
  if (N == 1)
    return Dendrogram(1, {});

  bool Squared = Method == Linkage::Ward;
  std::vector<std::vector<double>> Dist(N, std::vector<double>(N, 0.0));
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I + 1; J < N; ++J) {
      double D2 = squaredDistance(Points[I], Points[J]);
      Dist[I][J] = Dist[J][I] = Squared ? D2 : std::sqrt(D2);
    }

  std::vector<bool> Active(N, true);
  std::vector<unsigned> Size(N, 1);
  std::vector<int> NodeId(N);
  std::iota(NodeId.begin(), NodeId.end(), 0);

  std::vector<MergeStep> Merges;
  Merges.reserve(N - 1);

  for (std::size_t Step = 0; Step + 1 < N; ++Step) {
    // Find the closest active pair (ties break deterministically to the
    // lexicographically smallest pair).
    std::size_t BestI = 0;
    std::size_t BestJ = 0;
    double Best = std::numeric_limits<double>::infinity();
    for (std::size_t I = 0; I < N; ++I) {
      if (!Active[I])
        continue;
      for (std::size_t J = I + 1; J < N; ++J) {
        if (!Active[J])
          continue;
        if (Dist[I][J] < Best) {
          Best = Dist[I][J];
          BestI = I;
          BestJ = J;
        }
      }
    }

    double NI = Size[BestI];
    double NJ = Size[BestJ];

    // Lance-Williams update of the distances from the merged cluster
    // (stored in slot BestI) to every other active cluster.
    for (std::size_t K = 0; K < N; ++K) {
      if (!Active[K] || K == BestI || K == BestJ)
        continue;
      Dist[BestI][K] = Dist[K][BestI] =
          lanceWilliams(Method, Dist[BestI][K], Dist[BestJ][K],
                        Dist[BestI][BestJ], NI, NJ, Size[K]);
    }

    double Height = Squared ? std::sqrt(std::max(0.0, Best)) : Best;
    Merges.push_back({NodeId[BestI], NodeId[BestJ], Height,
                      static_cast<unsigned>(NI + NJ)});
    NodeId[BestI] = static_cast<int>(N + Step);
    Size[BestI] = static_cast<unsigned>(NI + NJ);
    Active[BestJ] = false;
  }
  return Dendrogram(N, std::move(Merges));
}

unsigned fgbs::elbowK(const FeatureTable &Points, const Dendrogram &Tree,
                      unsigned MaxK, double Threshold) {
  FGBS_TRACE_SPAN("cluster.elbow");
  assert(Threshold > 0.0 && "elbow threshold must be positive");
  std::size_t N = Points.size();
  assert(Tree.numLeaves() == N && "dendrogram does not match the points");
  MaxK = std::min<unsigned>(MaxK, static_cast<unsigned>(N));
  if (MaxK <= 1)
    return 1;

  double Tss = totalVariance(Points);
  if (Tss <= 0.0)
    return 1;

  // Within-cluster variance of every cut in one pass: start from K=N
  // (every point its own cluster, WSS 0) and replay the merges.  Merging
  // clusters A and B moves the WSS up by the Huygens centroid-merge
  // delta |A||B|/(|A|+|B|) * ||centroid(A) - centroid(B)||^2, so the
  // whole K sweep costs O(N * Dim) instead of O(N^2 * Dim * MaxK).
  // Node sums live in one flat buffer, Dim doubles per dendrogram node.
  const std::vector<MergeStep> &Merges = Tree.merges();
  std::size_t Dim = Points.front().size();
  std::vector<double> Sums((N + Merges.size()) * Dim);
  std::vector<double> CountOf(N + Merges.size(), 0.0);
  for (std::size_t I = 0; I < N; ++I) {
    assert(Points[I].size() == Dim && "ragged feature table");
    std::copy(Points[I].begin(), Points[I].end(), Sums.begin() + I * Dim);
    CountOf[I] = 1.0;
  }

  // WssAt[K] = within-cluster variance of cut(K), filled for K <= MaxK.
  std::vector<double> WssAt(MaxK + 1, 0.0);
  double Wss = 0.0;
  for (std::size_t Step = 0; Step < Merges.size(); ++Step) {
    const MergeStep &M = Merges[Step];
    auto Left = static_cast<std::size_t>(M.Left);
    auto Right = static_cast<std::size_t>(M.Right);
    const double *LeftSum = Sums.data() + Left * Dim;
    const double *RightSum = Sums.data() + Right * Dim;
    double NL = CountOf[Left];
    double NR = CountOf[Right];
    double Gap = 0.0;
    for (std::size_t D = 0; D < Dim; ++D) {
      double Diff = LeftSum[D] / NL - RightSum[D] / NR;
      Gap += Diff * Diff;
    }
    Wss += NL * NR / (NL + NR) * Gap;

    std::size_t Node = N + Step;
    double *NodeSum = Sums.data() + Node * Dim;
    for (std::size_t D = 0; D < Dim; ++D)
      NodeSum[D] = LeftSum[D] + RightSum[D];
    CountOf[Node] = NL + NR;

    std::size_t K = N - Step - 1; // Clusters remaining after this merge.
    if (K <= MaxK)
      WssAt[K] = Wss;
  }

  // Same scan as the original per-K recomputation: cut where the
  // marginal improvement drops below Threshold x total variance.
  double Previous = Tss;
  for (unsigned K = 2; K <= MaxK; ++K) {
    double Gain = Previous - WssAt[K];
    if (Gain < Threshold * Tss)
      return K - 1;
    Previous = WssAt[K];
  }
  return MaxK;
}

Clustering fgbs::randomClustering(std::size_t NumPoints, unsigned K,
                                  std::uint64_t Seed) {
  assert(K >= 1 && K <= NumPoints && "infeasible random clustering");
  Rng Generator(Seed);
  Clustering Result;
  Result.K = K;
  Result.Assignment.assign(NumPoints, 0);

  // Guarantee non-empty clusters: K distinct points seed the clusters,
  // the rest draw uniformly.
  std::vector<std::size_t> Seeds =
      Generator.sampleWithoutReplacement(NumPoints, K);
  std::vector<bool> IsSeed(NumPoints, false);
  for (unsigned Label = 0; Label < K; ++Label) {
    Result.Assignment[Seeds[Label]] = static_cast<int>(Label);
    IsSeed[Seeds[Label]] = true;
  }
  for (std::size_t I = 0; I < NumPoints; ++I)
    if (!IsSeed[I])
      Result.Assignment[I] = static_cast<int>(Generator.below(K));
  return Result;
}
