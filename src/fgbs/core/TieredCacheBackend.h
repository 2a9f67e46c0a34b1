//===- fgbs/core/TieredCacheBackend.h - Local + remote tiers ----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Read-through composition of a local measurement-cache directory and
/// a RemoteCacheBackend: gets consult the local tier first, fall through
/// to the remote, and a remote hit is written back into the local tier
/// so the next run on this host never crosses the network for it.
/// Puts land locally (the run's own durability) and are then
/// replicated to the remote in the same call; a failed replication is
/// counted and the put still succeeds, so a slow or dead network costs
/// a training run at most the client's retry budget, never its result.
///
/// Scope rules keeping the tiers honest:
///  - Last use and eviction are per tier: each tier's entry mtimes
///    record its own reads, the server prunes its own directory, and a
///    client prunes only its local directory.
///  - scan() is local-only.  Enumeration feeds local lifecycle and
///    status displays; fleet-wide enumeration goes through the remote
///    backend directly.
///  - lockPath() delegates to the local tier, so same-host writer
///    coordination keeps its kernel-backed FileLock guarantees.  Hosts
///    racing on one cold key may each simulate it; they publish
///    identical bytes, and every server put is an atomic rename.
///
/// Counters: db.cache.tier.{local_hits,remote_hits,writebacks,
/// writeback_failures}.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_TIEREDCACHEBACKEND_H
#define FGBS_CORE_TIEREDCACHEBACKEND_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/core/RemoteCacheBackend.h"

#include <memory>
#include <string>

namespace fgbs {

/// Local-then-remote read-through cache backend with synchronous
/// remote write-back.
class TieredCacheBackend final : public CacheBackend {
public:
  TieredCacheBackend(std::unique_ptr<CacheBackend> Local,
                     std::unique_ptr<RemoteCacheBackend> Remote);

  CacheBackend &local() { return *Local; }
  RemoteCacheBackend &remote() { return *Remote; }

  bool exists(const std::string &Name) const override;
  bool get(const std::string &Name, std::string &BytesOut) const override;
  bool put(const std::string &Name, std::string_view Bytes) override;
  bool remove(const std::string &Name) override;
  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override;
  /// Local-only, like scan() (fleet-wide enumeration goes through the
  /// remote backend directly), so it is always Ok.
  ScanPrefixResult scanPrefix(const std::string &Prefix) const override {
    ScanPrefixResult R;
    R.Entries = Local->scan(Prefix, "");
    return R;
  }
  /// The local tier always answers, so the composite is healthy even
  /// when the remote is down (reads degrade, they do not fail).
  bool healthy() const override { return Local->healthy(); }
  std::string lockPath(const std::string &Name) const override;

  /// Whether \p Name crosses the network: every name does.
  static bool replicated(const std::string &) { return true; }

private:
  std::unique_ptr<CacheBackend> Local;
  std::unique_ptr<RemoteCacheBackend> Remote;
};

} // namespace fgbs

#endif // FGBS_CORE_TIEREDCACHEBACKEND_H
