//===- fgbs/core/MeasurementCache.h - fgbs.meas.v1 cache -------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed, versioned on-disk persistence of a finished
/// MeasurementDatabase (fgbs.meas.v1).
///
/// The paper's economics rest on paying the measurement cost once:
/// steps A-B simulate every codelet on the reference and every target,
/// and nothing downstream (clustering sweeps, GA feature selection,
/// model training, the fig/table benches) changes those numbers.  The
/// cache persists the finished database keyed by a content hash of its
/// inputs — suite name + full codelet set + every machine configuration
/// + the timing policy — so a warm run skips simulation entirely.
///
/// File layout: the 28-byte support/FramedBlob header (magic
/// "FGBSMEA1", version major 1, minor 0, payload size, CRC-32 of the
/// payload), then the payload (see MeasurementCache.cpp for the field
/// order; all integers little-endian).
///
/// Loading is strict and typed like snapshot loading — truncation,
/// version skew, CRC mismatch, dimension damage and non-finite numbers
/// all produce MeasurementCacheError values, never undefined behaviour.
/// A stored key that does not match the key derived from the live
/// inputs (e.g. a machine configuration changed since the file was
/// written) is KeyMismatch; buildMeasurementDatabase() treats every
/// load failure as a miss and falls back to re-simulation with a
/// warning, so a stale or damaged cache can never corrupt results.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_MEASUREMENTCACHE_H
#define FGBS_CORE_MEASUREMENTCACHE_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/core/Database.h"
#include "fgbs/support/FileLock.h"
#include "fgbs/support/FramedBlob.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace fgbs {

/// Leading bytes of every measurement-cache file.
inline constexpr char kMeasurementMagic[8] = {'F', 'G', 'B', 'S',
                                              'M', 'E', 'A', '1'};
/// Format version this build writes.
inline constexpr std::uint32_t kMeasurementVersionMajor = 1;
inline constexpr std::uint32_t kMeasurementVersionMinor = 0;
/// Fixed header size preceding the payload.
inline constexpr std::size_t kMeasurementHeaderBytes = framed::kHeaderBytes;

/// Content hash of everything the simulator sweep depends on: suite
/// name, every codelet (arrays, loop nest, body statement trees,
/// invocation schedule, behaviour traits), every field of the reference
/// and target machine descriptions, and the timing policy.  Any change
/// to any of them yields a different key and therefore a clean
/// re-simulation.
std::uint64_t measurementKey(const Suite &S, const Machine &Reference,
                             const std::vector<Machine> &Targets,
                             const TimingPolicy &Policy = {});

/// The cache file name a key maps to ("fgbs-meas-<16 hex digits>.v1").
std::string measurementCacheFileName(std::uint64_t Key);

/// Why a measurement cache failed to load.
enum class MeasurementCacheError {
  None,               ///< Loaded fine.
  Io,                 ///< Could not open/read the file.
  Truncated,          ///< Fewer bytes than the header/payload announce.
  BadMagic,           ///< Not a measurement-cache file.
  UnsupportedVersion, ///< Major version this reader does not speak.
  ChecksumMismatch,   ///< Payload bytes do not match the stored CRC-32.
  KeyMismatch,        ///< Stored content key differs from the live inputs.
  Malformed,          ///< Structural damage: dimension or range mismatch.
  InvalidValue,       ///< Non-finite number where a finite one is required.
  LockTimeout,        ///< The entry's writer lock stayed held past the
                      ///< deadline (a lock that errors is Io).
};

/// Stable identifier for an error (warnings and tests key on it).
const char *measurementCacheErrorName(MeasurementCacheError E);

/// Outcome of a load: either a reassembled database (bound to the live
/// suite) or a typed error with a human-readable message.
struct MeasurementLoadResult {
  std::unique_ptr<MeasurementDatabase> Db;
  MeasurementCacheError Error = MeasurementCacheError::None;
  std::string Message;

  explicit operator bool() const { return Db != nullptr; }
};

/// Serializes \p Db into the byte format described above, stamped with
/// \p Key (the caller computes it via measurementKey over the same
/// inputs that built \p Db).
std::string serializeMeasurements(const MeasurementDatabase &Db,
                                  std::uint64_t Key);

/// Parses and validates measurement bytes, rebinding the codelet
/// profiles onto \p S.  \p ExpectedKey must match the stored key and
/// the stored codelet/machine names must match the live objects.
/// \p Reference and \p Targets are the live machine descriptions the
/// rebuilt database carries.
MeasurementLoadResult parseMeasurements(std::string_view Bytes,
                                        const Suite &S, Machine Reference,
                                        std::vector<Machine> Targets,
                                        std::uint64_t ExpectedKey);

/// The measurement cache proper: a CacheBackend (a local directory, a
/// RemoteCacheBackend over an fgbs_cached server, or the tiered
/// composition of both) plus typed, lock-coordinated stores.  Loads
/// never lock: entries are published atomically, so a reader sees
/// either nothing or a complete file.  Writers on one host coordinate
/// through the backend's writerLock(), a FileLock on its lockPath().
/// Last use is the entry's own mtime, which the backend keeps
/// (CacheBackend.h); eviction is pruneMeasurementEntries().
class MeasurementCache {
public:
  /// A cache over \p Dir via LocalDirBackend (created when missing).
  explicit MeasurementCache(const std::string &Dir);
  /// A cache over any backend (the remote-tier seam).
  explicit MeasurementCache(std::unique_ptr<CacheBackend> Backend);

  CacheBackend &backend() { return *BackendPtr; }

  /// True when an entry for \p Key has been published.
  bool exists(std::uint64_t Key) const;

  /// Loads and validates the entry for \p Key.
  MeasurementLoadResult load(const Suite &S, Machine Reference,
                             std::vector<Machine> Targets, std::uint64_t Key);

  /// Serializes and atomically publishes \p Db under \p Key.  Unless
  /// \p EntryLockHeld says the caller already holds the entry's writer
  /// lock, one is acquired here — and a lock still held elsewhere after
  /// LockOptions.TimeoutMs is the typed LockTimeout error, a lock file
  /// that cannot be opened or flocked is Io (nothing is written either
  /// way), never a silent fallback.
  MeasurementCacheError store(const MeasurementDatabase &Db, std::uint64_t Key,
                              bool EntryLockHeld = false,
                              std::string *Message = nullptr);

  /// Writer-coordination knobs for entry stores.
  FileLock::Options LockOptions;

private:
  std::unique_ptr<CacheBackend> BackendPtr;
};

/// pruneEntries() over the measurement entries (`fgbs-meas-*.v1`) of
/// \p Dir; no other file there is a candidate.  Runs where the files
/// live: a host's cache directory or the server's root.
CachePruneStats pruneMeasurementEntries(LocalDirBackend &Dir,
                                        std::uint64_t MaxBytes,
                                        std::uint64_t MaxAgeSeconds,
                                        std::string_view JustStored = {});

/// The FGBS_MEAS_CACHE_MAX_BYTES default byte budget (0 when unset or
/// unparseable).
std::uint64_t measurementCacheEnvMaxBytes();

/// How buildMeasurementDatabase() runs: thread fan-out plus the on-disk
/// cache location and lifecycle.
struct DatabaseBuildOptions {
  /// Measurement threads (DatabaseOptions semantics: 0 = auto).
  unsigned Threads = 0;
  /// Cache directory; empty disables the on-disk cache.  Created on
  /// first store if missing.
  std::string CacheDir;
  /// "host:port" of an fgbs_cached server (--cache-remote); empty falls
  /// back to the FGBS_MEAS_CACHE_REMOTE environment variable, and an
  /// empty result means no remote tier.  With a CacheDir too, the cache
  /// is tiered (local read-through over the remote, write-through puts);
  /// with no CacheDir it is remote-only.  An unreachable or dying
  /// server degrades to simulate-without-store with a warning and
  /// db.cache.remote.{errors,timeouts} counters — it never fails a run.
  std::string CacheRemote;
  /// Master cache switch (--no-cache): false never reads or writes the
  /// cache even when CacheDir is set.
  bool UseCache = true;
  /// Entry-byte budget auto-pruned after a store (0 = auto: the
  /// FGBS_MEAS_CACHE_MAX_BYTES environment variable, else unbounded).
  std::uint64_t CacheMaxBytes = 0;
  /// Maximum entry age in seconds, enforced alongside the byte budget
  /// (0 = unbounded).
  std::uint64_t CacheMaxAgeSeconds = 0;
};

/// Builds the measurement database for (\p S, \p Reference, \p Targets)
/// under the default TimingPolicy, serving it from \p Options.CacheDir
/// when a file with the matching content key exists there, and
/// re-simulating (then storing) otherwise.  Load failures warn on stderr
/// and fall back to simulation; store failures warn and are otherwise
/// ignored.
///
/// Concurrent cold runs against one directory coordinate through a
/// per-entry FileLock: exactly one simulates and publishes while the
/// others block (backoff, FGBS_MEAS_CACHE_LOCK_MS or 10 min deadline) and
/// then load the freshly published entry instead of re-simulating.  A run
/// whose lock wait times out warns with the typed lock_timeout error,
/// simulates, and skips the store (the live holder will publish the
/// identical bytes); a lock that errors warns io the same way.  When a
/// byte/age budget is configured the local directory is pruned after a
/// store (pruneMeasurementEntries, the new entry ranked first).
///
/// Counters (when telemetry is on): db.cache.{hits,misses,stores,
/// errors,evictions} and db.cache.lock.{acquired,waited_ms,timeouts}.
std::unique_ptr<MeasurementDatabase>
buildMeasurementDatabase(const Suite &S, Machine Reference,
                         std::vector<Machine> Targets,
                         const DatabaseBuildOptions &Options = {});

} // namespace fgbs

#endif // FGBS_CORE_MEASUREMENTCACHE_H
