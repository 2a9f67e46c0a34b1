//===- fgbs/service/SelectionService.h - Online query engine ---*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online system-selection query engine: answers classification and
/// prediction requests against a loaded model snapshot WITHOUT re-running
/// the pipeline — the serving half of the paper's "extract once, reuse
/// everywhere" workflow (section 3.4).
///
/// A query carries the full 76-entry feature vector of a new codelet
/// (and, for time prediction, its measured per-invocation seconds on the
/// reference machine).  The engine normalizes with the snapshot's stored
/// stats, projects onto the GA-selected feature subset, assigns the
/// nearest centroid, and extrapolates per-target times through the
/// cluster representative's speedup — exactly the arithmetic of
/// model/Prediction, so training codelets round-trip bit-compatibly.
///
/// Thread safety: a SelectionService is immutable after construction;
/// every method is const and safe to call from any number of reader
/// threads concurrently.  Each call runs on its caller's thread.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SERVICE_SELECTIONSERVICE_H
#define FGBS_SERVICE_SELECTIONSERVICE_H

#include "fgbs/service/Snapshot.h"

#include <string>
#include <vector>

namespace fgbs {
namespace service {

/// One codelet to classify/predict: its full feature vector in catalog
/// order, plus (for time prediction) reference-machine seconds per
/// invocation.
struct QueryRequest {
  std::vector<double> Features;
  double ReferenceSeconds = 0.0;
};

/// Nearest-centroid cluster assignment of a query.
struct ClassifyResult {
  unsigned Cluster = 0;
  /// Euclidean distance to the winning centroid in normalized selected-
  /// feature space.
  double Distance = 0.0;
  /// Kept-codelet index and name of the cluster's representative.
  std::uint32_t Representative = 0;
  std::string RepresentativeName;
};

/// Per-target time prediction of a query.
struct PredictResult {
  ClassifyResult Classified;
  /// Predicted per-invocation seconds on each snapshot target (snapshot
  /// target order).
  std::vector<double> PredictedSeconds;
  /// Reference-vs-target speedup per target (ref seconds / predicted).
  std::vector<double> Speedups;
};

/// One row of a machine ranking.
struct MachineRank {
  std::string MachineName;
  /// Geometric-mean speedup vs. the reference over the ranked queries.
  double GeomeanSpeedup = 0.0;
};

/// The online query engine over one loaded model snapshot.
class SelectionService {
public:
  /// Takes ownership of \p Model.  The snapshot must be valid
  /// (validateSnapshot == None), which loadSnapshot guarantees.
  explicit SelectionService(ModelSnapshot Model);

  const ModelSnapshot &model() const { return S; }

  /// Normalizes a full catalog-order feature vector with the stored
  /// stats and projects it onto the selected subset (size D).  Matches
  /// normalizeFeatures(): zero-variance columns map to 0.
  std::vector<double> normalize(const std::vector<double> &Features) const;

  /// Assigns \p Features (size numFeatures()) to the nearest centroid.
  /// Ties break to the lowest cluster id.
  ClassifyResult classify(const std::vector<double> &Features) const;

  /// Classifies and extrapolates per-target times through the assigned
  /// cluster representative's speedup (Q.ReferenceSeconds must be a
  /// positive reference-machine measurement).
  PredictResult predictTimes(const QueryRequest &Q) const;

  /// Ranks the snapshot's targets by geometric-mean predicted speedup
  /// over \p Queries (best machine first; ties keep snapshot target
  /// order).  The paper's system-selection use case, served online.
  std::vector<MachineRank>
  rankMachines(const std::vector<QueryRequest> &Queries) const;

private:
  ModelSnapshot S;
  /// Catalog indices of the selected features (size D), precomputed
  /// from the mask so normalize() is a gather, not a scan.
  std::vector<std::size_t> Selected;
};

} // namespace service
} // namespace fgbs

#endif // FGBS_SERVICE_SELECTIONSERVICE_H
