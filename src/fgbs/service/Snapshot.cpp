//===- fgbs/service/Snapshot.cpp - fgbs.model.v1 model snapshots ----------===//
//
// Payload field order (after the 28-byte header; all integers
// little-endian, doubles as little-endian IEEE-754 bit patterns):
//
//   str   SuiteName
//   str   ReferenceName
//   u32 F, F x str      feature catalog names
//   F x u8              feature mask (0/1)
//   u32 D, D x f64      normalization means
//   D x f64             normalization standard deviations
//   u32 K, K x D x f64  cluster centroids (row-major)
//   u32 N, N x u32      cluster assignment per kept codelet
//   K x u32             representative kept-codelet index per cluster
//   N x str             kept codelet names
//   N x f64             reference seconds per kept codelet
//   u32 T, T x (str + K x f64)  per-target representative seconds
//
// where str = u32 byte length + bytes.  A v1.(M>0) writer appends new
// fields after these; this v1.0 reader skips such trailing payload
// bytes, but rejects them on files claiming minor version 0.
//
//===----------------------------------------------------------------------===//

#include "fgbs/service/Snapshot.h"

#include "fgbs/core/CacheBackend.h"
#include "fgbs/support/BinaryIo.h"

#include <cassert>
#include <cmath>

using namespace fgbs;
using namespace fgbs::service;
using namespace fgbs::binio;

namespace {

using Reader = binio::ByteReader;

constexpr framed::Format kSnapshotFormat = {
    kSnapshotMagic, kSnapshotVersionMajor, "fgbs.model.v1 snapshot"};

SnapshotLoadResult failed(SnapshotError E, std::string Message) {
  SnapshotLoadResult R;
  R.Error = E;
  R.Message = std::move(Message);
  return R;
}

bool allFinite(const std::vector<double> &V) {
  for (double X : V)
    if (!std::isfinite(X))
      return false;
  return true;
}

bool allPositive(const std::vector<double> &V) {
  for (double X : V)
    if (!(X > 0.0))
      return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Building from a pipeline run
//===----------------------------------------------------------------------===//

ModelSnapshot service::buildSnapshot(const MeasurementDatabase &Db,
                                     const PipelineResult &R) {
  assert(R.Selection.FinalK > 0 &&
         "cannot snapshot a pipeline with no representatives");
  assert(R.Mask.size() == NumFeatures && "result predates the mask field");

  ModelSnapshot S;
  S.SuiteName = Db.suite().Name;
  S.ReferenceName = Db.reference().Name;

  const FeatureCatalog &Cat = FeatureCatalog::get();
  S.FeatureNames.reserve(Cat.size());
  for (std::size_t F = 0; F < Cat.size(); ++F)
    S.FeatureNames.push_back(Cat.info(F).Name);
  S.Mask = R.Mask;
  S.Norm = R.Norm;

  unsigned K = R.Selection.FinalK;
  std::vector<std::vector<std::size_t>> Members(K);
  for (std::size_t I = 0; I < R.Selection.Assignment.size(); ++I)
    Members[static_cast<std::size_t>(R.Selection.Assignment[I])].push_back(I);
  S.Centroids.reserve(K);
  for (const std::vector<std::size_t> &M : Members)
    S.Centroids.push_back(centroidOf(R.Points, M));

  S.Assignment = R.Selection.Assignment;
  S.Representatives.reserve(K);
  for (std::size_t Rep : R.Selection.Representatives)
    S.Representatives.push_back(static_cast<std::uint32_t>(Rep));

  S.CodeletNames.reserve(R.Kept.size());
  S.ReferenceSeconds.reserve(R.Kept.size());
  for (std::size_t Index : R.Kept) {
    S.CodeletNames.push_back(Db.codelet(Index).Name);
    S.ReferenceSeconds.push_back(Db.profile(Index).InApp.MeasuredSeconds);
  }

  for (std::size_t T = 0; T < Db.targets().size(); ++T) {
    SnapshotTarget Target;
    Target.MachineName = Db.targets()[T].Name;
    Target.RepresentativeSeconds.reserve(K);
    for (std::size_t Rep : R.Selection.Representatives)
      Target.RepresentativeSeconds.push_back(
          Db.standaloneTarget(R.Kept[Rep], T).MedianSeconds);
    S.Targets.push_back(std::move(Target));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

const char *service::snapshotErrorName(SnapshotError E) {
  switch (E) {
  case SnapshotError::None:
    return "none";
  case SnapshotError::Io:
    return "io";
  case SnapshotError::Truncated:
    return "truncated";
  case SnapshotError::BadMagic:
    return "bad_magic";
  case SnapshotError::UnsupportedVersion:
    return "unsupported_version";
  case SnapshotError::ChecksumMismatch:
    return "checksum_mismatch";
  case SnapshotError::Malformed:
    return "malformed";
  case SnapshotError::InvalidValue:
    return "invalid_value";
  }
  return "unknown";
}

SnapshotError service::validateSnapshot(const ModelSnapshot &S,
                                        std::string &Message) {
  std::size_t F = S.FeatureNames.size();
  std::size_t K = S.Centroids.size();
  std::size_t N = S.Assignment.size();

  if (F == 0 || K == 0 || N == 0) {
    Message = "empty feature catalog, clustering, or codelet list";
    return SnapshotError::Malformed;
  }
  if (S.Mask.size() != F) {
    Message = "feature mask does not cover the catalog";
    return SnapshotError::Malformed;
  }
  std::size_t D = maskCount(S.Mask);
  if (D == 0) {
    Message = "feature mask selects nothing";
    return SnapshotError::Malformed;
  }
  if (S.Norm.Mean.size() != D || S.Norm.Std.size() != D) {
    Message = "normalization stats do not match the selected feature count";
    return SnapshotError::Malformed;
  }
  if (!allFinite(S.Norm.Mean) || !allFinite(S.Norm.Std)) {
    Message = "non-finite normalization statistic";
    return SnapshotError::InvalidValue;
  }
  for (double Std : S.Norm.Std)
    if (Std < 0.0) {
      Message = "negative normalization standard deviation";
      return SnapshotError::InvalidValue;
    }
  for (const std::vector<double> &C : S.Centroids) {
    if (C.size() != D) {
      Message = "centroid dimension does not match the selected features";
      return SnapshotError::Malformed;
    }
    if (!allFinite(C)) {
      Message = "non-finite centroid coordinate";
      return SnapshotError::InvalidValue;
    }
  }
  if (K > N) {
    Message = "more clusters than codelets";
    return SnapshotError::Malformed;
  }
  for (int A : S.Assignment)
    if (A < 0 || static_cast<std::size_t>(A) >= K) {
      Message = "cluster assignment out of range";
      return SnapshotError::Malformed;
    }
  if (S.Representatives.size() != K) {
    Message = "one representative per cluster required";
    return SnapshotError::Malformed;
  }
  for (std::size_t Cl = 0; Cl < K; ++Cl) {
    std::uint32_t Rep = S.Representatives[Cl];
    if (Rep >= N) {
      Message = "representative index out of range";
      return SnapshotError::Malformed;
    }
    if (S.Assignment[Rep] != static_cast<int>(Cl)) {
      Message = "representative is not a member of its cluster";
      return SnapshotError::Malformed;
    }
  }
  if (S.CodeletNames.size() != N || S.ReferenceSeconds.size() != N) {
    Message = "per-codelet vectors do not match the assignment length";
    return SnapshotError::Malformed;
  }
  if (!allFinite(S.ReferenceSeconds)) {
    Message = "non-finite reference time";
    return SnapshotError::InvalidValue;
  }
  if (!allPositive(S.ReferenceSeconds)) {
    Message = "non-positive reference time";
    return SnapshotError::InvalidValue;
  }
  for (const SnapshotTarget &T : S.Targets) {
    if (T.RepresentativeSeconds.size() != K) {
      Message = "target '" + T.MachineName +
                "' does not carry one measurement per cluster";
      return SnapshotError::Malformed;
    }
    if (!allFinite(T.RepresentativeSeconds) ||
        !allPositive(T.RepresentativeSeconds)) {
      Message = "invalid representative time on target '" + T.MachineName +
                "'";
      return SnapshotError::InvalidValue;
    }
  }
  return SnapshotError::None;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string service::serializeSnapshot(const ModelSnapshot &S) {
  std::string Out = framed::blank();
  putStr(Out, S.SuiteName);
  putStr(Out, S.ReferenceName);

  putU32(Out, static_cast<std::uint32_t>(S.FeatureNames.size()));
  for (const std::string &Name : S.FeatureNames)
    putStr(Out, Name);
  for (bool Bit : S.Mask)
    Out.push_back(Bit ? 1 : 0);

  putU32(Out, static_cast<std::uint32_t>(S.Norm.Mean.size()));
  for (double V : S.Norm.Mean)
    putF64(Out, V);
  for (double V : S.Norm.Std)
    putF64(Out, V);

  putU32(Out, static_cast<std::uint32_t>(S.Centroids.size()));
  for (const std::vector<double> &C : S.Centroids)
    for (double V : C)
      putF64(Out, V);

  putU32(Out, static_cast<std::uint32_t>(S.Assignment.size()));
  for (int A : S.Assignment)
    putU32(Out, static_cast<std::uint32_t>(A));
  for (std::uint32_t Rep : S.Representatives)
    putU32(Out, Rep);
  for (const std::string &Name : S.CodeletNames)
    putStr(Out, Name);
  for (double V : S.ReferenceSeconds)
    putF64(Out, V);

  putU32(Out, static_cast<std::uint32_t>(S.Targets.size()));
  for (const SnapshotTarget &T : S.Targets) {
    putStr(Out, T.MachineName);
    for (double V : T.RepresentativeSeconds)
      putF64(Out, V);
  }
  framed::seal(Out, kSnapshotFormat, kSnapshotVersionMinor);
  return Out;
}

SnapshotLoadResult service::parseSnapshot(std::string_view Bytes) {
  const framed::Opened Blob = framed::open(Bytes, kSnapshotFormat);
  if (!Blob)
    return failed(framed::typedError<SnapshotError>(Blob.State),
                  framed::describe(Blob, kSnapshotFormat));

  Reader In(Blob.Payload);
  ModelSnapshot S;
  S.SuiteName = In.str();
  S.ReferenceName = In.str();

  std::uint32_t F = In.u32();
  if (In.overrun() || F > In.remaining())
    return failed(SnapshotError::Malformed, "damaged feature catalog");
  S.FeatureNames.reserve(F);
  for (std::uint32_t I = 0; I < F && !In.overrun(); ++I)
    S.FeatureNames.push_back(In.str());

  if (!In.overrun() && F <= In.remaining()) {
    S.Mask.reserve(F);
    for (std::uint32_t I = 0; I < F; ++I) {
      std::uint8_t Bit = In.u8();
      if (Bit > 1)
        return failed(SnapshotError::Malformed,
                      "feature mask byte is neither 0 nor 1");
      S.Mask.push_back(Bit != 0);
    }
  } else {
    return failed(SnapshotError::Malformed, "damaged feature mask");
  }

  std::uint32_t D = In.u32();
  S.Norm.Mean = In.f64Vector(D);
  S.Norm.Std = In.f64Vector(D);

  std::uint32_t K = In.u32();
  if (In.overrun() ||
      static_cast<std::uint64_t>(K) * D > In.remaining() / 8)
    return failed(SnapshotError::Malformed, "damaged centroid block");
  S.Centroids.reserve(K);
  for (std::uint32_t I = 0; I < K && !In.overrun(); ++I)
    S.Centroids.push_back(In.f64Vector(D));

  std::uint32_t N = In.u32();
  if (In.overrun() || N > In.remaining() / 4)
    return failed(SnapshotError::Malformed, "damaged assignment block");
  S.Assignment.reserve(N);
  for (std::uint32_t I = 0; I < N; ++I)
    S.Assignment.push_back(static_cast<int>(In.u32()));
  S.Representatives.reserve(K);
  for (std::uint32_t I = 0; I < K; ++I)
    S.Representatives.push_back(In.u32());
  if (In.overrun())
    return failed(SnapshotError::Malformed, "damaged representative block");
  S.CodeletNames.reserve(N);
  for (std::uint32_t I = 0; I < N && !In.overrun(); ++I)
    S.CodeletNames.push_back(In.str());
  S.ReferenceSeconds = In.f64Vector(N);

  std::uint32_t T = In.u32();
  if (In.overrun() || T > In.remaining())
    return failed(SnapshotError::Malformed, "damaged target block");
  S.Targets.reserve(T);
  for (std::uint32_t I = 0; I < T && !In.overrun(); ++I) {
    SnapshotTarget Target;
    Target.MachineName = In.str();
    Target.RepresentativeSeconds = In.f64Vector(K);
    S.Targets.push_back(std::move(Target));
  }
  if (In.overrun())
    return failed(SnapshotError::Malformed,
                  "payload ends inside a snapshot field");

  // Minor-version forward compatibility: a newer writer appends fields
  // we skip; a file of our own minor version must end exactly here.
  if (Blob.Head.Minor <= kSnapshotVersionMinor && !In.atEnd())
    return failed(SnapshotError::Malformed,
                  "trailing garbage after the last snapshot field");

  std::string Message;
  SnapshotError E = validateSnapshot(S, Message);
  if (E != SnapshotError::None)
    return failed(E, Message);

  SnapshotLoadResult R;
  R.Snapshot = std::move(S);
  return R;
}

bool service::saveSnapshotFile(const std::string &Path,
                               const ModelSnapshot &S) {
  return atomicWriteFile(Path, serializeSnapshot(S));
}

SnapshotLoadResult service::loadSnapshotFile(const std::string &Path) {
  std::string Bytes;
  if (!readWholeFile(Path, Bytes))
    return failed(SnapshotError::Io, "cannot read '" + Path + "'");
  return parseSnapshot(Bytes);
}
