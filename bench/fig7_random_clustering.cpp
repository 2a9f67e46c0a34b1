//===- bench/fig7_random_clustering.cpp - Paper Figure 7 ------------------===//
//
// Regenerates Figure 7: how the GA-feature-guided Ward clustering
// compares against random clusterings.  For every K from 2 to 24, 1000
// uniformly random partitions of the NAS codelets into K non-empty
// clusters are pushed through steps D and E; the per-target median
// prediction error of the worst, median and best random partition is
// reported next to the feature-guided clustering.  Each partition is
// drawn and evaluated once for all three targets, and the draws of one
// K are spread over the thread pool (FGBS_THREADS); each writes its own
// slot, so the output is the same for any thread count.
//
//===----------------------------------------------------------------------===//

#include "bench/common.h"

#include "fgbs/support/ThreadPool.h"

using namespace fgbs;

int main() {
  obs::Session Telemetry("fig7_random_clustering");
  bench::banner("Figure 7",
                "Feature-guided clustering vs 1000 random clusterings (NAS)");

  std::unique_ptr<bench::Study> Study = bench::makeNasStudy();
  const MeasurementDatabase &Db = *Study->Db;
  Pipeline P(Db, PipelineConfig());
  std::size_t NumKept = Db.keptCodelets().size();
  const std::size_t NumTargets = Db.targets().size();

  constexpr unsigned MinK = 2;
  constexpr unsigned MaxK = 24;
  constexpr unsigned Draws = 1000;
  // [K - MinK][target][draw] and [K - MinK][target].
  std::vector<std::vector<std::vector<double>>> RandomErrors(MaxK - MinK + 1);
  std::vector<std::vector<double>> GuidedErrors(MaxK - MinK + 1);
  ThreadPool Pool(ThreadPool::defaultThreadCount());
  for (unsigned K = MinK; K <= MaxK; ++K) {
    std::vector<std::vector<double>> &Errors = RandomErrors[K - MinK];
    Errors.assign(NumTargets, std::vector<double>(Draws));
    Pool.parallelFor(0, Draws, [&](std::size_t Draw) {
      Clustering C = randomClustering(NumKept, K,
                                      /*Seed=*/K * 100003ull + Draw);
      PipelineResult R = P.runWithClustering(C);
      for (std::size_t TIdx = 0; TIdx < NumTargets; ++TIdx)
        Errors[TIdx][Draw] = R.Targets[TIdx].MedianErrorPercent;
    });
    PipelineConfig Cfg;
    Cfg.K = K;
    PipelineResult Guided = Pipeline(Db, Cfg).run();
    for (const TargetEvaluation &E : Guided.Targets)
      GuidedErrors[K - MinK].push_back(E.MedianErrorPercent);
  }

  for (std::size_t TIdx = 0; TIdx < NumTargets; ++TIdx) {
    std::cout << "--- " << Db.targets()[TIdx].Name << " ---\n";
    TextTable T;
    T.setHeader({"K", "worst random", "median random", "best random",
                 "GA features"});
    for (unsigned K = MinK; K <= MaxK; ++K) {
      const std::vector<double> &Errors = RandomErrors[K - MinK][TIdx];
      T.addRow({std::to_string(K), formatPercent(percentile(Errors, 100)),
                formatPercent(median(Errors)),
                formatPercent(percentile(Errors, 0)),
                formatPercent(GuidedErrors[K - MinK][TIdx])});
    }
    T.print(std::cout);
    std::cout << "\n";
  }

  bench::paperNote(
      "Paper Figure 7: for each K from 2 to 24 the GA-feature clustering "
      "is consistently close to or better than the best of 1000 random "
      "clusterings on all three targets.  Shape: the GA column tracks or "
      "beats the 'best random' column and stays far below the median "
      "random error.");
  return 0;
}
