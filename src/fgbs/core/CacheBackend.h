//===- fgbs/core/CacheBackend.h - Measurement-cache storage ----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage seam under core/MeasurementCache: named blobs with
/// atomic publish, enumeration, and (optionally) a lock-file location
/// for cross-process writer coordination.
///
/// LocalDirBackend is the one shipping implementation — a flat
/// directory of content-addressed `fgbs-meas-*.v1` files where put() is
/// write-to-temp-in-the-same-directory + rename, so readers only ever
/// observe absent or complete entries (the temp file lives next to its
/// target, never in /tmp, because rename(2) is only atomic within one
/// filesystem).  The interface is deliberately dumb-blob-shaped so the
/// ROADMAP's sharded remote tier (HTTP/object store; content-addressed
/// keys make it natural) can slot in without touching the cache logic:
/// a remote backend returns an empty lockPath() and brings its own
/// atomicity.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_CACHEBACKEND_H
#define FGBS_CORE_CACHEBACKEND_H

#include "fgbs/support/FileLock.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fgbs {

/// One stored blob as enumeration reports it.
struct CacheEntry {
  std::string Name;
  std::uint64_t SizeBytes = 0;
  /// Last-use time (unix seconds).  scan() reports the storage-level
  /// modification time; the manifest layer overlays true access times.
  std::int64_t AccessUnixSeconds = 0;
};

/// How a scanPrefix() call resolved.  Distinct from "empty result":
/// a registry that asks for `model/foo/sha/` must be able to tell
/// "there are no snapshots" (Ok, zero entries) apart from "the network
/// ate the answer or the server refused it" (Failed) — the first is
/// authoritative, the second must not be treated as it.
enum class ScanPrefixOutcome {
  Ok,     ///< Entries is the complete, authoritative listing.
  Failed, ///< Transport, storage or server error; Entries is empty.
};

struct ScanPrefixResult {
  ScanPrefixOutcome Outcome = ScanPrefixOutcome::Ok;
  std::vector<CacheEntry> Entries;
  /// Human-readable detail for Failed.
  std::string Message;

  explicit operator bool() const { return Outcome == ScanPrefixOutcome::Ok; }
};

/// Writer election for one named entry: a FileLock on the backend's
/// lockPath() (per host, released by the kernel when the holder dies).
/// A backend that needs no coordination returns an empty lockPath(),
/// which makes the lock a no-op that always acquires.
using WriterLock = FileLock;

/// Named-blob storage under the measurement cache.
class CacheBackend {
public:
  virtual ~CacheBackend() = default;

  virtual bool exists(const std::string &Name) const = 0;

  /// Reads the whole blob; false when absent or unreadable.
  virtual bool get(const std::string &Name, std::string &BytesOut) const = 0;

  /// Atomically publishes the blob: concurrent readers see either the
  /// previous version or this one, never a partial write.
  virtual bool put(const std::string &Name, std::string_view Bytes) = 0;

  virtual bool remove(const std::string &Name) = 0;

  /// Enumerates blobs whose name starts with \p Prefix and ends with
  /// \p Suffix (both may be empty).
  virtual std::vector<CacheEntry> scan(const std::string &Prefix,
                                       const std::string &Suffix) const = 0;

  /// Enumerates blobs whose name starts with \p Prefix, with a typed
  /// outcome (see ScanPrefixOutcome).  Default: scan(Prefix, "") marked
  /// Ok, which is correct for every backend whose scan() is
  /// authoritative; RemoteCacheBackend overrides this to surface
  /// transport and server failures (Failed).
  virtual ScanPrefixResult scanPrefix(const std::string &Prefix) const;

  /// True when the backend can currently serve requests.  Local
  /// backends are always healthy; RemoteCacheBackend pings.  The model
  /// registry uses this to decide between "the registry said the ref is
  /// gone" (authoritative) and "the registry is down, degrade to the
  /// local copy".
  virtual bool healthy() const { return true; }

  /// Where a FileLock coordinating writers of \p Name should live;
  /// empty when this backend needs no cross-process locking (it brings
  /// its own atomicity, and its lifecycle is managed where the blobs
  /// live — e.g. by the remote server's own prune).
  virtual std::string lockPath(const std::string &Name) const = 0;

  /// The writer election for \p Name: a FileLock on lockPath(Name),
  /// the always-acquires no-op lock when that path is empty.
  virtual std::unique_ptr<WriterLock> writerLock(const std::string &Name);
};

/// Writes \p Bytes to \p Path via a temp file in Path's own directory
/// plus an atomic rename.  Shared by LocalDirBackend and the bare
/// saveMeasurementsFile() wrapper.
bool atomicWriteFile(const std::string &Path, std::string_view Bytes);

/// Reads the whole regular file at \p Path with one read of its size;
/// false when it is absent, unreadable or not a regular file (so a
/// directory or a device where an entry should be is an unreadable
/// entry, not an exception or a bogus size).  Files that change size
/// while being read yield what the read returned; every blob this
/// reads is published by rename and never changes in place.
bool readWholeFile(const std::string &Path, std::string &BytesOut);

/// atomicWriteFile() temp files older than this are debris from a
/// crashed writer; LocalDirBackend::scan unlinks them as it goes (and
/// never reports any temp file as an entry, whatever the scan filters).
inline constexpr std::int64_t kStaleTempFileSeconds = 3600;

/// A flat directory of blobs (created on first use).
///
/// Namespaced entry names (`model/<name>/sha/<hex>`) are stored flat:
/// '/' is encoded as '~' in the on-disk file name and decoded on
/// enumeration, so a shard directory never grows subdirectories and
/// every existing flat (measurement) name maps to itself.  '~' is
/// reserved — put() rejects names containing it, because such a name
/// would collide with an encoded one and decode to something else.
class LocalDirBackend final : public CacheBackend {
public:
  explicit LocalDirBackend(std::string Dir);

  const std::string &dir() const { return Dir; }

  bool exists(const std::string &Name) const override;
  bool get(const std::string &Name, std::string &BytesOut) const override;
  bool put(const std::string &Name, std::string_view Bytes) override;
  bool remove(const std::string &Name) override;
  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override;
  std::string lockPath(const std::string &Name) const override;

  /// The '/'<->'~' mapping between entry names and flat on-disk file
  /// names.  Exposed for tests and for tools that look at shard
  /// directories directly.
  static std::string encodeFileName(const std::string &Name);
  static std::string decodeFileName(const std::string &FileName);

private:
  std::string fullPath(const std::string &Name) const;

  std::string Dir;
};

} // namespace fgbs

#endif // FGBS_CORE_CACHEBACKEND_H
