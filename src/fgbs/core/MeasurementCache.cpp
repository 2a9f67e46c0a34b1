//===- fgbs/core/MeasurementCache.cpp - fgbs.meas.v1 cache ----------------===//
//
// Payload field order (after the 28-byte header; all integers
// little-endian, doubles as little-endian IEEE-754 bit patterns):
//
//   u64   content key (must equal the key derived from the live inputs)
//   str   suite name
//   str   reference machine name
//   u32 T, T x str      target machine names
//   u32 P               dispatch-port count (this build: NumPorts)
//   u32 N               codelet count
//   N x { str name, u8 discarded, meas InApp, u32 F, F x f64 features }
//   N x sa              standalone measurements on the reference
//   T x N x meas        ground-truth in-app measurements per target
//   T x N x sa          standalone measurements per target
//
// where str = u32 byte length + bytes,
//       meas = f64 TrueSeconds, f64 MeasuredSeconds, f64 MemCyclesPerIter,
//              11 x f64 performance counters (Cycles, Uops, FpOpsSP,
//              FpOpsDP, L1Accesses, L2LinesIn, L3LinesIn, MemLinesIn,
//              LoadBytes, StoreBytes, Seconds),
//              P x f64 port cycles + 6 x f64 compute-bound fields
//              (MaxPortCycles, IssueCycles, DepCycles, DividerCycles,
//              Uops, ComputeCycles),
//       sa   = f64 MedianSeconds, f64 TrueSeconds, u64 Invocations,
//              f64 TotalBenchmarkSeconds.
//
// A v1.(M>0) writer appends new fields after these; this v1.0 reader
// skips such trailing payload bytes, but rejects them on files claiming
// minor version 0 (the fgbs.model.v1 compatibility policy).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"

#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/core/TieredCacheBackend.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Rng.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

using namespace fgbs;
using namespace fgbs::binio;

//===----------------------------------------------------------------------===//
// Content key derivation
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t hashF64(std::uint64_t Key, double V) {
  return hashCombine(Key, std::bit_cast<std::uint64_t>(V));
}

std::uint64_t hashStr(std::uint64_t Key, const std::string &S) {
  return hashCombine(Key, hashString(S.c_str()));
}

std::uint64_t hashAccess(std::uint64_t Key, const Access &A) {
  Key = hashCombine(Key, A.ArrayIndex);
  Key = hashCombine(Key, static_cast<std::uint64_t>(A.Stride));
  Key = hashCombine(Key, static_cast<std::uint64_t>(A.StrideElems));
  return hashCombine(Key, A.PointsPerIter);
}

std::uint64_t hashExpr(std::uint64_t Key, const Expr &E) {
  Key = hashCombine(Key, static_cast<std::uint64_t>(E.Kind));
  Key = hashCombine(Key, static_cast<std::uint64_t>(E.Prec));
  switch (E.Kind) {
  case ExprKind::Load:
    return hashAccess(Key, E.Ref);
  case ExprKind::Constant:
    return Key;
  case ExprKind::Binary:
    Key = hashCombine(Key, static_cast<std::uint64_t>(E.Bin));
    Key = hashExpr(Key, *E.Lhs);
    return hashExpr(Key, *E.Rhs);
  case ExprKind::Unary:
    Key = hashCombine(Key, static_cast<std::uint64_t>(E.Un));
    return hashExpr(Key, *E.Lhs);
  }
  return Key;
}

std::uint64_t hashCodelet(std::uint64_t Key, const Codelet &C) {
  Key = hashStr(Key, C.Name);
  Key = hashStr(Key, C.App);
  Key = hashCombine(Key, C.Arrays.size());
  for (const ArrayDecl &A : C.Arrays) {
    Key = hashStr(Key, A.Name);
    Key = hashCombine(Key, static_cast<std::uint64_t>(A.Elem));
    Key = hashCombine(Key, A.NumElements);
  }
  Key = hashCombine(Key, C.Nest.InnerTripCount);
  Key = hashCombine(Key, C.Nest.OuterIterations);
  Key = hashCombine(Key, C.Body.size());
  for (const Stmt &S : C.Body) {
    Key = hashCombine(Key, static_cast<std::uint64_t>(S.Kind));
    Key = hashAccess(Key, S.Target);
    Key = hashCombine(Key, static_cast<std::uint64_t>(S.ReduceOp));
    if (S.Rhs)
      Key = hashExpr(Key, *S.Rhs);
  }
  Key = hashCombine(Key, C.Invocations.size());
  for (const InvocationGroup &G : C.Invocations) {
    Key = hashCombine(Key, G.Count);
    Key = hashF64(Key, G.DatasetScale);
  }
  std::uint64_t TraitBits =
      (static_cast<std::uint64_t>(C.Traits.CompilationContextSensitive) << 1) |
      static_cast<std::uint64_t>(C.Traits.CacheStateSensitive);
  return hashCombine(Key, TraitBits);
}

std::uint64_t hashMachine(std::uint64_t Key, const Machine &M) {
  Key = hashStr(Key, M.Name);
  Key = hashStr(Key, M.Cpu);
  Key = hashF64(Key, M.FrequencyGHz);
  Key = hashCombine(Key, M.Cores);
  Key = hashCombine(Key, M.RamGB);
  Key = hashCombine(Key, (static_cast<std::uint64_t>(M.OutOfOrder) << 32) |
                             (static_cast<std::uint64_t>(M.IssueWidth) << 16) |
                             M.VectorBits);
  Key = hashCombine(Key, M.NumFpRegisters);
  const CoreTimings &T = M.Timings;
  for (double V : {T.FpAddLatency, T.FpMulLatency, T.FpDivLatencySP,
                   T.FpDivLatencyDP, T.FpSqrtLatency, T.FpExpCost,
                   T.IntAddLatency, T.IntMulLatency,
                   T.VectorFpThroughputFactor, T.VectorDpThroughputFactor})
    Key = hashF64(Key, V);
  Key = hashCombine(Key, M.CacheLevels.size());
  for (const CacheLevelConfig &L : M.CacheLevels) {
    Key = hashStr(Key, L.Name);
    Key = hashCombine(Key, L.SizeBytes);
    Key = hashCombine(Key, (static_cast<std::uint64_t>(L.Associativity) << 32) |
                               L.LineBytes);
    Key = hashF64(Key, L.LatencyCycles);
    Key = hashF64(Key, L.BandwidthBytesPerCycle);
  }
  Key = hashF64(Key, M.MemLatencyCycles);
  Key = hashF64(Key, M.MemBandwidthGBs);
  return Key;
}

} // namespace

std::uint64_t fgbs::measurementKey(const Suite &S, const Machine &Reference,
                                   const std::vector<Machine> &Targets,
                                   const TimingPolicy &Policy) {
  // Seed with the format name so key spaces of future schemes differ.
  std::uint64_t Key = hashString("fgbs.meas.v1");
  Key = hashStr(Key, S.Name);
  std::vector<const Codelet *> Codelets = S.allCodelets();
  Key = hashCombine(Key, Codelets.size());
  for (const Codelet *C : Codelets)
    Key = hashCodelet(Key, *C);
  Key = hashMachine(Key, Reference);
  Key = hashCombine(Key, Targets.size());
  for (const Machine &M : Targets)
    Key = hashMachine(Key, M);
  Key = hashF64(Key, Policy.MinRunSeconds);
  Key = hashCombine(Key, Policy.MinInvocations);
  return Key;
}

std::string fgbs::measurementCacheFileName(std::uint64_t Key) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Key));
  return std::string("fgbs-meas-") + Hex + ".v1";
}

const char *fgbs::measurementCacheErrorName(MeasurementCacheError E) {
  switch (E) {
  case MeasurementCacheError::None:
    return "none";
  case MeasurementCacheError::Io:
    return "io";
  case MeasurementCacheError::Truncated:
    return "truncated";
  case MeasurementCacheError::BadMagic:
    return "bad_magic";
  case MeasurementCacheError::UnsupportedVersion:
    return "unsupported_version";
  case MeasurementCacheError::ChecksumMismatch:
    return "checksum_mismatch";
  case MeasurementCacheError::KeyMismatch:
    return "key_mismatch";
  case MeasurementCacheError::Malformed:
    return "malformed";
  case MeasurementCacheError::InvalidValue:
    return "invalid_value";
  case MeasurementCacheError::LockTimeout:
    return "lock_timeout";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

void putMeasurement(std::string &Out, const Measurement &M) {
  putF64(Out, M.TrueSeconds);
  putF64(Out, M.MeasuredSeconds);
  putF64(Out, M.MemCyclesPerIter);
  const PerfCounters &C = M.Counters;
  for (double V : {C.Cycles, C.Uops, C.FpOpsSP, C.FpOpsDP, C.L1Accesses,
                   C.L2LinesIn, C.L3LinesIn, C.MemLinesIn, C.LoadBytes,
                   C.StoreBytes, C.Seconds})
    putF64(Out, V);
  for (double V : M.Compute.PortCycles)
    putF64(Out, V);
  for (double V : {M.Compute.MaxPortCycles, M.Compute.IssueCycles,
                   M.Compute.DepCycles, M.Compute.DividerCycles,
                   M.Compute.Uops, M.Compute.ComputeCycles})
    putF64(Out, V);
}

void putStandalone(std::string &Out, const StandaloneMeasurement &S) {
  putF64(Out, S.MedianSeconds);
  putF64(Out, S.TrueSeconds);
  putU64(Out, S.Invocations);
  putF64(Out, S.TotalBenchmarkSeconds);
}

/// The readers return false on a non-finite or non-positive value;
/// truncation is reported through the reader's overrun flag.
bool readMeasurement(ByteReader &In, Measurement &M) {
  M.TrueSeconds = In.f64();
  M.MeasuredSeconds = In.f64();
  M.MemCyclesPerIter = In.f64();
  PerfCounters &C = M.Counters;
  for (double *V : {&C.Cycles, &C.Uops, &C.FpOpsSP, &C.FpOpsDP, &C.L1Accesses,
                    &C.L2LinesIn, &C.L3LinesIn, &C.MemLinesIn, &C.LoadBytes,
                    &C.StoreBytes, &C.Seconds})
    *V = In.f64();
  for (double &V : M.Compute.PortCycles)
    V = In.f64();
  for (double *V :
       {&M.Compute.MaxPortCycles, &M.Compute.IssueCycles, &M.Compute.DepCycles,
        &M.Compute.DividerCycles, &M.Compute.Uops, &M.Compute.ComputeCycles})
    *V = In.f64();
  if (In.overrun())
    return true; // Truncation is reported by the caller, not here.
  for (double V : {M.TrueSeconds, M.MeasuredSeconds, M.MemCyclesPerIter,
                   C.Cycles, C.Uops, C.FpOpsSP, C.FpOpsDP, C.L1Accesses,
                   C.L2LinesIn, C.L3LinesIn, C.MemLinesIn, C.LoadBytes,
                   C.StoreBytes, C.Seconds, M.Compute.ComputeCycles})
    if (!std::isfinite(V))
      return false;
  return M.TrueSeconds > 0.0 && M.MeasuredSeconds > 0.0;
}

bool readStandalone(ByteReader &In, StandaloneMeasurement &S) {
  S.MedianSeconds = In.f64();
  S.TrueSeconds = In.f64();
  S.Invocations = In.u64();
  S.TotalBenchmarkSeconds = In.f64();
  if (In.overrun())
    return true;
  if (!std::isfinite(S.MedianSeconds) || !std::isfinite(S.TrueSeconds) ||
      !std::isfinite(S.TotalBenchmarkSeconds))
    return false;
  return S.MedianSeconds > 0.0 && S.TrueSeconds > 0.0 && S.Invocations >= 1;
}

constexpr framed::Format kMeasurementFormat = {
    kMeasurementMagic, kMeasurementVersionMajor,
    "fgbs.meas.v1 measurement cache"};

MeasurementLoadResult failed(MeasurementCacheError E, std::string Message) {
  MeasurementLoadResult R;
  R.Error = E;
  R.Message = std::move(Message);
  return R;
}

} // namespace

std::string fgbs::serializeMeasurements(const MeasurementDatabase &Db,
                                        std::uint64_t Key) {
  std::string Out = framed::blank();
  putU64(Out, Key);
  putStr(Out, Db.suite().Name);
  putStr(Out, Db.reference().Name);

  putU32(Out, static_cast<std::uint32_t>(Db.targets().size()));
  for (const Machine &M : Db.targets())
    putStr(Out, M.Name);

  putU32(Out, NumPorts);
  const std::size_t N = Db.numCodelets();
  putU32(Out, static_cast<std::uint32_t>(N));
  for (std::size_t I = 0; I < N; ++I) {
    const CodeletProfile &P = Db.profile(I);
    putStr(Out, P.C->Name);
    Out.push_back(P.Discarded ? 1 : 0);
    putMeasurement(Out, P.InApp);
    putU32(Out, static_cast<std::uint32_t>(P.Features.size()));
    for (double V : P.Features)
      putF64(Out, V);
  }
  for (std::size_t I = 0; I < N; ++I)
    putStandalone(Out, Db.standaloneRef(I));
  for (std::size_t T = 0; T < Db.targets().size(); ++T)
    for (std::size_t I = 0; I < N; ++I)
      putMeasurement(Out, Db.realTargetMeasurement(I, T));
  for (std::size_t T = 0; T < Db.targets().size(); ++T)
    for (std::size_t I = 0; I < N; ++I)
      putStandalone(Out, Db.standaloneTarget(I, T));
  framed::seal(Out, kMeasurementFormat, kMeasurementVersionMinor);
  return Out;
}

MeasurementLoadResult fgbs::parseMeasurements(std::string_view Bytes,
                                              const Suite &S, Machine Reference,
                                              std::vector<Machine> Targets,
                                              std::uint64_t ExpectedKey) {
  const framed::Opened Blob = framed::open(Bytes, kMeasurementFormat);
  if (!Blob)
    return failed(framed::typedError<MeasurementCacheError>(Blob.State),
                  framed::describe(Blob, kMeasurementFormat));

  ByteReader In(Blob.Payload);
  std::uint64_t StoredKey = In.u64();
  if (In.overrun())
    return failed(MeasurementCacheError::Truncated, "payload ends in the key");
  if (StoredKey != ExpectedKey)
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored content key does not match the live suite, "
                  "machines, and timing policy");

  std::string SuiteName = In.str();
  std::string ReferenceName = In.str();
  if (In.overrun())
    return failed(MeasurementCacheError::Malformed, "damaged identity block");
  if (SuiteName != S.Name || ReferenceName != Reference.Name)
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored suite/reference names do not match the live "
                  "objects");

  std::uint32_t T = In.u32();
  if (In.overrun() || T != Targets.size())
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored target count does not match");
  for (std::uint32_t I = 0; I < T; ++I)
    if (In.str() != Targets[I].Name)
      return failed(MeasurementCacheError::KeyMismatch,
                    "stored target names do not match");

  std::uint32_t Ports = In.u32();
  if (In.overrun() || Ports != NumPorts)
    return failed(MeasurementCacheError::Malformed,
                  "dispatch-port count does not match this build");

  std::vector<const Codelet *> Codelets = S.allCodelets();
  std::uint32_t N = In.u32();
  if (In.overrun() || N != Codelets.size())
    return failed(MeasurementCacheError::KeyMismatch,
                  "stored codelet count does not match the suite");

  std::vector<CodeletProfile> Profiles(N);
  for (std::uint32_t I = 0; I < N; ++I) {
    CodeletProfile &P = Profiles[I];
    std::string Name = In.str();
    if (In.overrun())
      return failed(MeasurementCacheError::Malformed,
                    "payload ends inside the profile block");
    if (Name != Codelets[I]->Name)
      return failed(MeasurementCacheError::KeyMismatch,
                    "stored codelet order does not match the suite");
    P.C = Codelets[I];
    std::uint8_t Discarded = In.u8();
    if (Discarded > 1)
      return failed(MeasurementCacheError::Malformed,
                    "discarded flag is neither 0 nor 1");
    P.Discarded = Discarded != 0;
    if (!readMeasurement(In, P.InApp))
      return failed(MeasurementCacheError::InvalidValue,
                    "invalid in-application profile measurement");
    std::uint32_t F = In.u32();
    if (In.overrun() || F > In.remaining() / 8)
      return failed(MeasurementCacheError::Malformed,
                    "damaged feature vector");
    if (F != NumFeatures)
      return failed(MeasurementCacheError::Malformed,
                    "feature count does not match this build");
    P.Features = In.f64Vector(F);
    for (double V : P.Features)
      if (!std::isfinite(V))
        return failed(MeasurementCacheError::InvalidValue,
                      "non-finite feature value");
  }

  std::vector<StandaloneMeasurement> StandaloneRef(N);
  for (std::uint32_t I = 0; I < N; ++I)
    if (!readStandalone(In, StandaloneRef[I]))
      return failed(MeasurementCacheError::InvalidValue,
                    "invalid reference standalone measurement");

  std::vector<std::vector<Measurement>> Real(T, std::vector<Measurement>(N));
  for (std::uint32_t Tgt = 0; Tgt < T; ++Tgt)
    for (std::uint32_t I = 0; I < N; ++I)
      if (!readMeasurement(In, Real[Tgt][I]))
        return failed(MeasurementCacheError::InvalidValue,
                      "invalid target ground-truth measurement");

  std::vector<std::vector<StandaloneMeasurement>> StandaloneTgt(
      T, std::vector<StandaloneMeasurement>(N));
  for (std::uint32_t Tgt = 0; Tgt < T; ++Tgt)
    for (std::uint32_t I = 0; I < N; ++I)
      if (!readStandalone(In, StandaloneTgt[Tgt][I]))
        return failed(MeasurementCacheError::InvalidValue,
                      "invalid target standalone measurement");

  if (In.overrun())
    return failed(MeasurementCacheError::Truncated,
                  "payload ends inside a measurement field");

  // Minor-version forward compatibility: a newer writer appends fields
  // we skip; a file of our own minor version must end exactly here.
  if (Blob.Head.Minor <= kMeasurementVersionMinor && !In.atEnd())
    return failed(MeasurementCacheError::Malformed,
                  "trailing garbage after the last measurement field");

  MeasurementLoadResult R;
  R.Db = std::make_unique<MeasurementDatabase>(
      S, std::move(Reference), std::move(Targets), std::move(Profiles),
      std::move(Real), std::move(StandaloneRef), std::move(StandaloneTgt));
  return R;
}

//===----------------------------------------------------------------------===//
// Lifecycle: typed stores and pruning
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t envU64(const char *Name) {
  const char *Raw = std::getenv(Name);
  if (!Raw || !*Raw)
    return 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Raw, &End, 10);
  return (End && *End == '\0') ? static_cast<std::uint64_t>(V) : 0;
}

/// Every lock acquisition in the cache layer funnels through here so
/// the db.cache.lock.* counters cover every entry lock.
FileLock::AcquireResult acquireCounted(FileLock &Lock,
                                       const FileLock::Options &O) {
  FileLock::AcquireResult R = Lock.acquire(O);
  if (R.WaitedMs > 0)
    FGBS_COUNTER_ADD("db.cache.lock.waited_ms", R.WaitedMs);
  if (R)
    FGBS_COUNTER_ADD("db.cache.lock.acquired", 1);
  else if (R.St == FileLock::Status::Timeout)
    FGBS_COUNTER_ADD("db.cache.lock.timeouts", 1);
  return R;
}

/// How a failed lock acquisition surfaces: a deadline that passed with
/// the lock held elsewhere is LockTimeout; a lock file that cannot be
/// opened or flocked is Io.
MeasurementCacheError lockError(const FileLock::AcquireResult &R) {
  return R.St == FileLock::Status::Timeout ? MeasurementCacheError::LockTimeout
                                           : MeasurementCacheError::Io;
}

} // namespace

std::uint64_t fgbs::measurementCacheEnvMaxBytes() {
  return envU64("FGBS_MEAS_CACHE_MAX_BYTES");
}

CachePruneStats fgbs::pruneMeasurementEntries(LocalDirBackend &Dir,
                                              std::uint64_t MaxBytes,
                                              std::uint64_t MaxAgeSeconds,
                                              std::string_view JustStored) {
  return pruneEntries(Dir, Dir.scan("fgbs-meas-", ".v1"), MaxBytes,
                      MaxAgeSeconds, JustStored);
}

MeasurementCache::MeasurementCache(const std::string &Dir)
    : BackendPtr(std::make_unique<LocalDirBackend>(Dir)) {}

MeasurementCache::MeasurementCache(std::unique_ptr<CacheBackend> Backend)
    : BackendPtr(std::move(Backend)) {}

bool MeasurementCache::exists(std::uint64_t Key) const {
  return BackendPtr->exists(measurementCacheFileName(Key));
}

MeasurementLoadResult MeasurementCache::load(const Suite &S, Machine Reference,
                                             std::vector<Machine> Targets,
                                             std::uint64_t Key) {
  const std::string Name = measurementCacheFileName(Key);
  std::string Bytes;
  if (!BackendPtr->get(Name, Bytes))
    return failed(MeasurementCacheError::Io,
                  "cannot read '" + Name + "' from the cache backend");
  return parseMeasurements(Bytes, S, std::move(Reference), std::move(Targets),
                           Key);
}

MeasurementCacheError MeasurementCache::store(const MeasurementDatabase &Db,
                                              std::uint64_t Key,
                                              bool EntryLockHeld,
                                              std::string *Message) {
  const std::string Name = measurementCacheFileName(Key);
  std::unique_ptr<WriterLock> Lock;
  if (!EntryLockHeld) {
    Lock = BackendPtr->writerLock(Name);
    FileLock::AcquireResult R = acquireCounted(*Lock, LockOptions);
    if (!R) {
      if (Message)
        *Message = R.Message;
      return lockError(R);
    }
  }
  if (!BackendPtr->put(Name, serializeMeasurements(Db, Key))) {
    if (Message)
      *Message = "cannot publish '" + Name + "' to the cache backend";
    return MeasurementCacheError::Io;
  }
  return MeasurementCacheError::None;
}

//===----------------------------------------------------------------------===//
// The cached build front-end
//===----------------------------------------------------------------------===//

std::unique_ptr<MeasurementDatabase>
fgbs::buildMeasurementDatabase(const Suite &S, Machine Reference,
                               std::vector<Machine> Targets,
                               const DatabaseBuildOptions &Options) {
  DatabaseOptions DbOptions;
  DbOptions.Threads = Options.Threads;
  auto Simulate = [&] {
    return std::make_unique<MeasurementDatabase>(S, Reference, Targets,
                                                 TimingPolicy{}, DbOptions);
  };
  // The remote tier is opt-in per run (--cache-remote) or per
  // environment (FGBS_MEAS_CACHE_REMOTE); --no-cache turns off both
  // tiers at once.
  std::string RemoteSpec = Options.CacheRemote;
  if (RemoteSpec.empty())
    if (const char *Env = std::getenv("FGBS_MEAS_CACHE_REMOTE"))
      RemoteSpec = Env;
  if (!Options.UseCache || (Options.CacheDir.empty() && RemoteSpec.empty()))
    return Simulate();

  std::unique_ptr<RemoteCacheBackend> Remote;
  if (!RemoteSpec.empty()) {
    RemoteCacheConfig RemoteConfig;
    if (parseRemoteCacheAddress(RemoteSpec, RemoteConfig)) {
      Remote = std::make_unique<RemoteCacheBackend>(std::move(RemoteConfig));
    } else {
      std::cerr << "fgbs: warning: ignoring malformed remote cache address '"
                << RemoteSpec << "' (want host:port)\n";
      if (Options.CacheDir.empty())
        return Simulate();
    }
  }

  // Local-only, remote-only, or tiered — one MeasurementCache either
  // way; the backend seam hides which.
  std::unique_ptr<CacheBackend> Backend;
  if (Remote && !Options.CacheDir.empty())
    Backend = std::make_unique<TieredCacheBackend>(
        std::make_unique<LocalDirBackend>(Options.CacheDir),
        std::move(Remote));
  else if (Remote)
    Backend = std::move(Remote);
  else
    Backend = std::make_unique<LocalDirBackend>(Options.CacheDir);
  MeasurementCache Cache(std::move(Backend));
  Cache.LockOptions.TimeoutMs = envU64("FGBS_MEAS_CACHE_LOCK_MS");
  if (Cache.LockOptions.TimeoutMs == 0)
    Cache.LockOptions.TimeoutMs = 600000;
  const std::uint64_t Key = measurementKey(S, Reference, Targets);

  // \p Quiet silences the unusable-file warning on the post-lock
  // double check (the first pass already warned and counted it).
  auto TryLoad = [&](bool Quiet) -> std::unique_ptr<MeasurementDatabase> {
    if (!Cache.exists(Key))
      return nullptr;
    MeasurementLoadResult Loaded = Cache.load(S, Reference, Targets, Key);
    if (Loaded) {
      FGBS_COUNTER_ADD("db.cache.hits", 1);
      return std::move(Loaded.Db);
    }
    // A present-but-unusable file (CRC damage, version skew, a key
    // collision) must never poison results: warn and re-simulate.
    if (!Quiet) {
      FGBS_COUNTER_ADD("db.cache.errors", 1);
      std::cerr << "fgbs: measurement cache entry '"
                << measurementCacheFileName(Key) << "' in '"
                << Options.CacheDir << "' unusable ("
                << measurementCacheErrorName(Loaded.Error) << ": "
                << Loaded.Message << "); re-simulating\n";
    }
    return nullptr;
  };

  // Fast path — no lock: a published entry is complete by construction
  // (atomic rename), so readers never coordinate with writers.
  if (auto Db = TryLoad(/*Quiet=*/false))
    return Db;
  FGBS_COUNTER_ADD("db.cache.misses", 1);

  // Cold path: exactly one concurrent run on this host simulates while
  // the rest block on the entry's file lock and then load what it
  // published.  A backend with no lock path (remote-only) hands out a
  // lock that acquires instantly; runs on other hosts may simulate the
  // same key too and publish identical bytes.
  std::unique_ptr<WriterLock> Lock =
      Cache.backend().writerLock(measurementCacheFileName(Key));
  bool LockHeld = false;
  {
    FileLock::AcquireResult R = acquireCounted(*Lock, Cache.LockOptions);
    if (R) {
      LockHeld = true;
      // The previous holder may have published our key while we waited.
      if (auto Db = TryLoad(/*Quiet=*/true))
        return Db;
    } else {
      // Typed, visible fallback: simulate but do NOT store.  On a
      // timeout the live holder will publish the identical bytes; on a
      // lock error (io) the entry stays cold.
      std::cerr << "fgbs: measurement cache '" << Options.CacheDir << "' ("
                << measurementCacheErrorName(lockError(R)) << ": " << R.Message
                << "); simulating without storing\n";
    }
  }

  auto Db = Simulate();
  if (LockHeld) {
    std::string Message;
    MeasurementCacheError E = Cache.store(*Db, Key, /*EntryLockHeld=*/true,
                                          &Message);
    if (E == MeasurementCacheError::None) {
      FGBS_COUNTER_ADD("db.cache.stores", 1);
      const std::uint64_t MaxBytes = Options.CacheMaxBytes
                                         ? Options.CacheMaxBytes
                                         : measurementCacheEnvMaxBytes();
      // Eviction is a per-tier concern: only the local directory is
      // pruned, so a tiered cache never deletes fleet-shared entries on
      // the server (which prunes its root under its own budgets), and
      // a remote-only cache has nothing here to prune.
      if ((MaxBytes || Options.CacheMaxAgeSeconds) &&
          !Options.CacheDir.empty()) {
        LocalDirBackend Dir(Options.CacheDir);
        pruneMeasurementEntries(Dir, MaxBytes, Options.CacheMaxAgeSeconds,
                                measurementCacheFileName(Key));
      }
    } else {
      FGBS_COUNTER_ADD("db.cache.errors", 1);
      std::cerr << "fgbs: cannot store measurement cache entry ("
                << measurementCacheErrorName(E) << ": " << Message << ")\n";
    }
  }
  Lock->release();
  return Db;
}
