//===- fgbs/core/TieredCacheBackend.cpp - Local + remote tiers ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/TieredCacheBackend.h"

#include "fgbs/obs/Metrics.h"

using namespace fgbs;

TieredCacheBackend::TieredCacheBackend(
    std::unique_ptr<CacheBackend> Local,
    std::unique_ptr<RemoteCacheBackend> Remote)
    : Local(std::move(Local)), Remote(std::move(Remote)) {}

bool TieredCacheBackend::exists(const std::string &Name) const {
  return Local->exists(Name) || Remote->exists(Name);
}

bool TieredCacheBackend::get(const std::string &Name,
                             std::string &BytesOut) const {
  if (Local->get(Name, BytesOut)) {
    FGBS_COUNTER_ADD("db.cache.tier.local_hits", 1);
    return true;
  }
  if (!Remote->get(Name, BytesOut))
    return false;
  FGBS_COUNTER_ADD("db.cache.tier.remote_hits", 1);
  // Populate the local tier so the next run on this host stays off the
  // network.  Best-effort: a full disk must not turn a hit into a miss.
  const_cast<CacheBackend &>(*Local).put(Name, BytesOut);
  return true;
}

bool TieredCacheBackend::put(const std::string &Name, std::string_view Bytes) {
  if (!Local->put(Name, Bytes))
    return false;
  if (Remote->put(Name, Bytes))
    FGBS_COUNTER_ADD("db.cache.tier.writebacks", 1);
  else
    FGBS_COUNTER_ADD("db.cache.tier.writeback_failures", 1);
  return true;
}

bool TieredCacheBackend::remove(const std::string &Name) {
  bool RemovedLocal = Local->remove(Name);
  bool RemovedRemote = Remote->remove(Name);
  return RemovedLocal || RemovedRemote;
}

std::vector<CacheEntry>
TieredCacheBackend::scan(const std::string &Prefix,
                         const std::string &Suffix) const {
  return Local->scan(Prefix, Suffix);
}

std::string TieredCacheBackend::lockPath(const std::string &Name) const {
  return Local->lockPath(Name);
}
