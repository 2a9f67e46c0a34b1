//===- fgbs/core/CacheBackend.h - Measurement-cache storage ----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage seam under core/MeasurementCache and core/ModelRegistry:
/// named blobs with atomic publish, enumeration, and (optionally) a
/// lock-file location for same-host writer coordination.
///
/// LocalDirBackend is a flat directory of blobs where put() is
/// write-to-temp-in-the-same-directory + rename, so readers only ever
/// observe absent or complete entries (the temp file lives next to its
/// target, never in /tmp, because rename(2) is only atomic within one
/// filesystem).  It backs a host's cache directory and net/CacheServer's
/// root alike.  core/RemoteCacheBackend speaks the same interface
/// over the wire and returns an empty lockPath() (the server brings its
/// own atomicity); core/TieredCacheBackend composes the two.
///
/// Each entry file is its own record of last use: a put sets its mtime,
/// and a LocalDirBackend::get sets it to now when it is
/// kEntryRefreshSeconds or more old.  pruneEntries() is the one
/// eviction rule over those times, for the client's directory and both
/// server namespaces alike.
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
  /// Last-use time (unix seconds): the entry's mtime, which a put sets
  /// and a LocalDirBackend::get refreshes once it is
  /// kEntryRefreshSeconds old.
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
/// plus an atomic rename.  Shared by LocalDirBackend and
/// service::saveSnapshotFile().
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

/// A get refreshes an entry's mtime (its last use) only when it is at
/// least this old, so a warm run's steady state reads and never writes.
inline constexpr std::int64_t kEntryRefreshSeconds = 60;

/// A flat directory of blobs (created on first use).
///
/// Namespaced entry names (`model/<name>/sha/<hex>`) are stored flat:
/// '/' is encoded as '~' in the on-disk file name and decoded on
/// enumeration, so a cache directory never grows subdirectories and
/// every existing flat (measurement) name maps to itself.  '~' is
/// reserved — put() rejects names containing it, because such a name
/// would collide with an encoded one and decode to something else.
class LocalDirBackend final : public CacheBackend {
public:
  explicit LocalDirBackend(std::string Dir);

  const std::string &dir() const { return Dir; }

  bool exists(const std::string &Name) const override;
  /// Reads the entry and, when its mtime is kEntryRefreshSeconds or more
  /// old, sets it to now: the read is a use.
  bool get(const std::string &Name, std::string &BytesOut) const override;
  bool put(const std::string &Name, std::string_view Bytes) override;
  bool remove(const std::string &Name) override;
  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override;
  std::string lockPath(const std::string &Name) const override;

  /// The '/'<->'~' mapping between entry names and flat on-disk file
  /// names.  Exposed for tests and for tools that look at cache
  /// directories directly.
  static std::string encodeFileName(const std::string &Name);
  static std::string decodeFileName(const std::string &FileName);

private:
  std::string fullPath(const std::string &Name) const;

  std::string Dir;
};

/// True when \p Seg is one canonical segment of a namespaced entry name
/// (`model/<name>/sha/<hex>`): non-empty, not "." or "..", and only
/// `[A-Za-z0-9._-]`, so no segment needs escaping and no two spellings
/// name one entry.  The server and the model registry both check it.
bool isValidNameSegment(std::string_view Seg);

/// What pruneEntries() did.
struct CachePruneStats {
  std::size_t Entries = 0;       ///< Candidate entries before pruning.
  std::size_t Removed = 0;       ///< Entries deleted.
  std::uint64_t BytesBefore = 0; ///< Candidate bytes before pruning.
  std::uint64_t BytesAfter = 0;  ///< Candidate bytes after pruning.
};

/// The eviction rule: sorts \p Entries (a scan of \p Dir) most recently
/// used first, with \p JustStored, the entry whose put triggered the
/// prune, ranked first and other ties ordered by name; keeps the longest
/// prefix whose entries are all at most \p MaxAgeSeconds old and fit
/// \p MaxBytes together (0 = unbounded), and removes the rest from
/// \p Dir.  Needs no lock: a prune only removes, and a removal that
/// races a read or another prune costs at most one re-simulation.
/// Counts removals as db.cache.evictions.
CachePruneStats pruneEntries(LocalDirBackend &Dir,
                             std::vector<CacheEntry> Entries,
                             std::uint64_t MaxBytes,
                             std::uint64_t MaxAgeSeconds,
                             std::string_view JustStored = {});

} // namespace fgbs

#endif // FGBS_CORE_CACHEBACKEND_H
