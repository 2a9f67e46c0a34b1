//===- bench/common.h - Shared glue for the paper-reproduction benches ----===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation section.  They share the database construction and a few
// printing helpers, collected here.  This header is bench-only glue, not
// part of the library API.
//
//===----------------------------------------------------------------------===//

#ifndef FGBS_BENCH_COMMON_H
#define FGBS_BENCH_COMMON_H

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/core/Pipeline.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/suites/Suites.h"
#include "fgbs/support/Statistics.h"
#include "fgbs/support/TextTable.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

namespace fgbs {
namespace bench {

/// A suite together with its measurement database (the suite must outlive
/// the database, hence the bundle).
///
/// The database build honors the shared environment knobs: FGBS_THREADS
/// picks the measurement fan-out (0/unset = auto) and FGBS_MEAS_CACHE
/// names a directory of fgbs.meas.v1 files — when set, a warm run loads
/// the finished database instead of re-simulating (see
/// core/MeasurementCache.h).  The cache is safe to share across
/// concurrently launched benches: cold runs coordinate through a
/// per-entry file lock (FGBS_MEAS_CACHE_LOCK_MS caps the wait) so only
/// one simulates, and FGBS_MEAS_CACHE_MAX_BYTES LRU-bounds the
/// directory.  Either way the numbers are bit-identical to a serial,
/// uncached build.
struct Study {
  Suite TheSuite;
  std::unique_ptr<MeasurementDatabase> Db;

  explicit Study(Suite S) : TheSuite(std::move(S)) {
    DatabaseBuildOptions Options;
    if (const char *Dir = std::getenv("FGBS_MEAS_CACHE"))
      Options.CacheDir = Dir;
    Db = buildMeasurementDatabase(TheSuite, makeNehalem(), paperTargets(),
                                  Options);
  }
};

inline std::unique_ptr<Study> makeNrStudy() {
  return std::make_unique<Study>(makeNumericalRecipes());
}

inline std::unique_ptr<Study> makeNasStudy() {
  return std::make_unique<Study>(makeNasSer());
}

/// One feature mask scored as the Table 2 GA scores it (section 4.2):
/// the elbow-cut pipeline's average errors on the two training targets
/// and its representative count.
struct Table2Score {
  double ErrAtom = 0.0;
  double ErrSandyBridge = 0.0;
  unsigned K = 0;
  /// The GA's fitness, to minimize: max(ErrAtom, ErrSandyBridge) x K.  An
  /// empty mask is infeasible and scores 1e12.
  double Fitness = 1e12;
};

inline Table2Score scoreTable2Mask(const MeasurementDatabase &Db,
                                   const FeatureMask &Mask) {
  Table2Score Score;
  if (maskCount(Mask) == 0)
    return Score;
  PipelineConfig Config;
  Config.Features = Mask;
  PipelineResult R = Pipeline(Db, Config).run();
  for (const TargetEvaluation &E : R.Targets) {
    if (E.MachineName == "Atom")
      Score.ErrAtom = E.AverageErrorPercent;
    if (E.MachineName == "Sandy Bridge")
      Score.ErrSandyBridge = E.AverageErrorPercent;
  }
  Score.K = R.Selection.FinalK;
  Score.Fitness = std::max(Score.ErrAtom, Score.ErrSandyBridge) *
                  static_cast<double>(Score.K);
  return Score;
}

/// Every bench main() opens an obs::Session named after its binary as
/// its first statement, then records headline results into it with
/// recordValue(); FGBS_RUN_JSON / FGBS_TRACE_JSON / FGBS_TELEMETRY
/// export the run in the common fgbs.run.v1 schema (see obs/RunReport.h).

/// Prints the standard banner for one experiment.
inline void banner(const std::string &Id, const std::string &Title) {
  std::cout << "==============================================================="
               "=\n"
            << Id << " -- " << Title << "\n"
            << "Reproduction of de Oliveira Castro et al., CGO 2014.\n"
            << "==============================================================="
               "=\n\n";
}

/// Prints a short paper-vs-measured note.
inline void paperNote(const std::string &Note) {
  std::cout << "\n[paper] " << Note << "\n";
}

} // namespace bench
} // namespace fgbs

#endif // FGBS_BENCH_COMMON_H
