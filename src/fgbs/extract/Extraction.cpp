//===- fgbs/extract/Extraction.cpp - Step D: extraction -------------------===//

#include "fgbs/extract/Extraction.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Matrix.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace fgbs;

StandaloneMeasurement fgbs::measureStandalone(const Codelet &C,
                                              const Machine &M,
                                              const TimingPolicy &Policy,
                                              CompileCache *Compile) {
  // The wrapper replays the FIRST invocation's captured memory dump, and
  // the loop is compiled without its surrounding application code.
  ExecutionRequest R;
  R.DatasetScale = C.capturedDatasetScale();
  R.Context = CompilationContext::Standalone;
  R.WarmCacheReplay = true;
  R.Compile = Compile;
  Measurement Base = execute(C, M, R);

  StandaloneMeasurement Out;
  Out.TrueSeconds = Base.TrueSeconds;

  // Invocation count: run at least MinRunSeconds in total, with at least
  // MinInvocations invocations.
  double PerInvocation = std::max(Base.TrueSeconds, 1e-12);
  auto Needed = static_cast<std::uint64_t>(
      std::ceil(Policy.MinRunSeconds / PerInvocation));
  Out.Invocations = std::max(Policy.MinInvocations, Needed);
  Out.TotalBenchmarkSeconds =
      static_cast<double>(Out.Invocations) * Base.TrueSeconds;

  // Median-of-invocations timing: re-sample the measurement noise per
  // invocation (deterministically) and take the median; this tightens
  // short-codelet measurements exactly like the paper's protocol.
  std::uint64_t Seed = hashString(C.Name.c_str());
  Seed = hashCombine(Seed, hashString(M.Name.c_str()));
  Seed = hashCombine(Seed, 0x57A4DA10ULL);
  Rng NoiseRng(Seed);
  double Millis = Base.TrueSeconds * 1e3;
  double Sigma = 0.012 + 0.035 * std::exp(-Millis / 8.0);
  // Sampling is capped: the median of a few hundred lognormal draws is
  // already indistinguishable from the distribution median.
  std::uint64_t Draws = std::min<std::uint64_t>(Out.Invocations, 199);
  std::vector<double> Samples;
  Samples.reserve(Draws);
  constexpr double StandaloneProbeOverhead = 0.5e-6;
  for (std::uint64_t I = 0; I < Draws; ++I)
    Samples.push_back(Base.TrueSeconds *
                          std::exp(NoiseRng.normal(0.0, Sigma)) +
                      StandaloneProbeOverhead);
  Out.MedianSeconds = median(Samples);
  return Out;
}

bool fgbs::isWellBehaved(const StandaloneMeasurement &Standalone,
                         double InAppSeconds, double Threshold) {
  assert(InAppSeconds > 0.0 && "in-app time must be positive");
  double Deviation =
      std::fabs(Standalone.MedianSeconds - InAppSeconds) / InAppSeconds;
  return Deviation <= Threshold;
}

SelectionResult fgbs::selectRepresentatives(
    const FeatureTable &Points, const Clustering &Initial,
    const std::function<bool(std::size_t)> &WellBehaved, bool PreferMedoid) {
  FGBS_TRACE_SPAN("extract.select");
  FGBS_COUNTER_ADD("extract.selections", 1);
  SelectionResult Result;
  Result.Assignment = Initial.Assignment;

  std::vector<std::vector<std::size_t>> Members = Initial.members();
  std::vector<bool> IllBehavedFlag(Points.size(), false);

  // Phase 1: per cluster, walk candidates by distance to centroid and
  // keep the first well-behaved one.  Each member's distance is computed
  // once and the stable sort orders by those keys; a single member needs
  // no order.
  std::vector<long> ClusterRep(Members.size(), -1); // -1 = destroyed.
  std::vector<std::size_t> Order;
  std::vector<double> Key;
  for (std::size_t Cl = 0; Cl < Members.size(); ++Cl) {
    const std::vector<std::size_t> &M = Members[Cl];
    if (M.empty())
      continue;
    Order.resize(M.size());
    for (std::size_t I = 0; I < M.size(); ++I)
      Order[I] = I;
    if (PreferMedoid && M.size() > 1) {
      std::vector<double> Centroid = centroidOf(Points, M);
      Key.resize(M.size());
      for (std::size_t I = 0; I < M.size(); ++I)
        Key[I] = squaredDistance(Points[M[I]], Centroid);
      std::stable_sort(Order.begin(), Order.end(),
                       [&Key](std::size_t A, std::size_t B) {
                         return Key[A] < Key[B];
                       });
    }
    for (std::size_t I : Order) {
      std::size_t Candidate = M[I];
      if (WellBehaved(Candidate)) {
        ClusterRep[Cl] = static_cast<long>(Candidate);
        break;
      }
      IllBehavedFlag[Candidate] = true;
    }
  }

  // Degenerate case: every cluster destroyed (a suite whose codelets are
  // all ill-behaved, like MG under per-application subsetting).  There is
  // nothing to extract; callers must treat the suite as unpredictable.
  bool AnySurvivor = false;
  for (long Rep : ClusterRep)
    AnySurvivor |= Rep >= 0;
  if (!AnySurvivor) {
    Result.Assignment.clear();
    Result.FinalK = 0;
    for (std::size_t P = 0; P < Points.size(); ++P)
      if (IllBehavedFlag[P])
        Result.IllBehaved.push_back(P);
    FGBS_COUNTER_ADD("extract.dissolved_clusters", Members.size());
    FGBS_COUNTER_ADD("extract.ill_behaved_replacements",
                     Result.IllBehaved.size());
    return Result;
  }

  // Phase 2: members of destroyed clusters move to the cluster of their
  // closest neighbor in any surviving cluster.
  for (std::size_t Cl = 0; Cl < Members.size(); ++Cl) {
    if (ClusterRep[Cl] >= 0 || Members[Cl].empty())
      continue;
    FGBS_COUNTER_ADD("extract.dissolved_clusters", 1);
    FGBS_COUNTER_ADD("extract.orphans_moved", Members[Cl].size());
    for (std::size_t Orphan : Members[Cl]) {
      double BestDist = std::numeric_limits<double>::infinity();
      long BestCluster = -1;
      for (std::size_t Other = 0; Other < Points.size(); ++Other) {
        auto OtherCl = static_cast<std::size_t>(Initial.Assignment[Other]);
        if (OtherCl == Cl || ClusterRep[OtherCl] < 0)
          continue;
        double Dist = squaredDistance(Points[Orphan], Points[Other]);
        if (Dist < BestDist) {
          BestDist = Dist;
          BestCluster = static_cast<long>(OtherCl);
        }
      }
      assert(BestCluster >= 0 && "no surviving cluster found");
      Result.Assignment[Orphan] = static_cast<int>(BestCluster);
    }
  }

  // Relabel surviving clusters to [0, FinalK) in first-appearance order.
  std::vector<int> Relabel(Members.size(), -1);
  for (std::size_t P = 0; P < Result.Assignment.size(); ++P) {
    auto Old = static_cast<std::size_t>(Result.Assignment[P]);
    if (Relabel[Old] < 0) {
      Relabel[Old] = static_cast<int>(Result.FinalK++);
      Result.Representatives.push_back(
          static_cast<std::size_t>(ClusterRep[Old]));
    }
    Result.Assignment[P] = Relabel[Old];
  }

  for (std::size_t P = 0; P < Points.size(); ++P)
    if (IllBehavedFlag[P])
      Result.IllBehaved.push_back(P);
  // Each ill-behaved candidate forced the walk to the next-nearest
  // medoid (or dissolved its cluster): the paper's replacement events.
  FGBS_COUNTER_ADD("extract.ill_behaved_replacements",
                   Result.IllBehaved.size());
  return Result;
}
