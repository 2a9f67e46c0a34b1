//===- fgbs/service/Snapshot.h - fgbs.model.v1 model snapshots -*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned, self-describing binary model snapshots (fgbs.model.v1).
///
/// The paper's workflow runs subsetting ONCE — profile, cluster, extract
/// representatives on the reference machine — and reuses the result across
/// many targets and users (section 3.4: "the benchmarks are portable, so
/// they can be extracted once for a benchmark suite and reused").  A
/// snapshot is that reusable artifact: everything the online
/// SelectionService needs to classify new codelets and predict their
/// target times without re-running the pipeline.
///
/// File layout: the 28-byte support/FramedBlob header (magic
/// "FGBSMDL1", version major 1, minor 0, payload size, CRC-32 of the
/// payload), then the payload (see Snapshot.cpp for the field-by-field
/// order; all integers little-endian).
///
/// Compatibility policy: a reader rejects any major version it does not
/// know (UnsupportedVersion).  Minor versions are additive — a v1.N
/// reader accepts v1.M files for M > N by ignoring the trailing payload
/// bytes it does not understand, and rejects trailing garbage on files
/// of its own minor version (Malformed).
///
/// Loading performs strict validation: truncation, version skew, checksum
/// mismatches, NaN values and dimension mismatches all produce typed
/// errors — never undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SERVICE_SNAPSHOT_H
#define FGBS_SERVICE_SNAPSHOT_H

#include "fgbs/core/Pipeline.h"
#include "fgbs/support/FramedBlob.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fgbs {
namespace service {

/// Leading bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'F', 'G', 'B', 'S',
                                           'M', 'D', 'L', '1'};
/// Format version this build writes.
inline constexpr std::uint32_t kSnapshotVersionMajor = 1;
inline constexpr std::uint32_t kSnapshotVersionMinor = 0;
/// Fixed header size preceding the payload.
inline constexpr std::size_t kSnapshotHeaderBytes = framed::kHeaderBytes;

/// Per-target slice of the model: the representatives' standalone
/// measurements on one target machine (the only thing a user must run on
/// a candidate system).
struct SnapshotTarget {
  std::string MachineName;
  /// Median standalone seconds per invocation of each cluster's
  /// representative on this target (one entry per cluster).
  std::vector<double> RepresentativeSeconds;
};

/// Everything the query service needs, as plain data.
///
/// Dimensions: F features in the catalog (76), D GA/Table-2-selected
/// features (maskCount(Mask)), K clusters, N kept codelets, T targets.
struct ModelSnapshot {
  /// Provenance: which suite was reduced, on which reference machine.
  std::string SuiteName;
  std::string ReferenceName;

  /// The full feature catalog the mask indexes into (F names, fixed
  /// order) — lets a reader detect catalog skew before classifying.
  std::vector<std::string> FeatureNames;
  /// Which catalog features drive the clustering (F bools, D set).
  FeatureMask Mask;
  /// Per-selected-column normalization of the training table (D means /
  /// D standard deviations; std 0 marks a zero-variance column whose
  /// normalized value is defined as 0, matching normalizeFeatures()).
  NormalizationStats Norm;

  /// Cluster centroids in the normalized selected-feature space (K rows
  /// of D).
  std::vector<std::vector<double>> Centroids;
  /// Final cluster id per kept codelet (N values in [0, K)).
  std::vector<int> Assignment;
  /// Per cluster, the kept-codelet index of its representative (K).
  std::vector<std::uint32_t> Representatives;

  /// Kept codelet names (N), for reports and debugging.
  std::vector<std::string> CodeletNames;
  /// In-application reference seconds per invocation of every kept
  /// codelet (N); the representatives' entries anchor the speedup model.
  std::vector<double> ReferenceSeconds;

  /// Representative measurements per target (T).
  std::vector<SnapshotTarget> Targets;

  std::size_t numFeatures() const { return Mask.size(); }
  std::size_t numSelectedFeatures() const { return Norm.Mean.size(); }
  std::size_t numClusters() const { return Centroids.size(); }
  std::size_t numCodelets() const { return Assignment.size(); }
  std::size_t numTargets() const { return Targets.size(); }
};

/// Builds a snapshot from a finished pipeline run over \p Db.  \p R must
/// have at least one final cluster (Selection.FinalK > 0) — a suite whose
/// codelets are all ill-behaved has no representatives to serve.
ModelSnapshot buildSnapshot(const MeasurementDatabase &Db,
                            const PipelineResult &R);

/// Why a snapshot failed to load.
enum class SnapshotError {
  None,             ///< Loaded fine.
  Io,               ///< Could not open/read the file.
  Truncated,        ///< Fewer bytes than the header/payload announce.
  BadMagic,         ///< Not a snapshot file.
  UnsupportedVersion, ///< Major version this reader does not speak.
  ChecksumMismatch, ///< Payload bytes do not match the stored CRC-32.
  Malformed,        ///< Structural damage: dimension or range mismatch.
  InvalidValue,     ///< Non-finite number where a finite one is required.
};

/// Stable identifier for an error (error responses and tests key on it).
const char *snapshotErrorName(SnapshotError E);

/// Outcome of a load: either a validated snapshot or a typed error with
/// a human-readable message.
struct SnapshotLoadResult {
  std::optional<ModelSnapshot> Snapshot;
  SnapshotError Error = SnapshotError::None;
  std::string Message;

  explicit operator bool() const { return Snapshot.has_value(); }
};

/// Checks the internal consistency of \p S (the same checks loading
/// performs).  Returns SnapshotError::None and leaves \p Message alone
/// when valid.
SnapshotError validateSnapshot(const ModelSnapshot &S, std::string &Message);

/// Serializes \p S into the byte format described above.
std::string serializeSnapshot(const ModelSnapshot &S);

/// Parses and validates snapshot bytes.
SnapshotLoadResult parseSnapshot(std::string_view Bytes);

/// File wrappers around serialize/parse.  saveSnapshotFile publishes
/// through atomicWriteFile (a temp file beside \p Path, then rename), so
/// a reader sees the old snapshot or the new one, never a torn file.
bool saveSnapshotFile(const std::string &Path, const ModelSnapshot &S);
SnapshotLoadResult loadSnapshotFile(const std::string &Path);

} // namespace service
} // namespace fgbs

#endif // FGBS_SERVICE_SNAPSHOT_H
