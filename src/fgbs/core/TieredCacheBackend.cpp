//===- fgbs/core/TieredCacheBackend.cpp - Local + remote tiers ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/TieredCacheBackend.h"

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/obs/Metrics.h"

using namespace fgbs;

bool TieredCacheBackend::replicated(const std::string &Name) {
  return Name != kMeasurementIndexName;
}

TieredCacheBackend::TieredCacheBackend(
    std::unique_ptr<CacheBackend> Local,
    std::unique_ptr<RemoteCacheBackend> Remote)
    : Local(std::move(Local)), Remote(std::move(Remote)) {}

TieredCacheBackend::~TieredCacheBackend() {
  {
    std::lock_guard<std::mutex> Guard(QueueMutex);
    Stopping = true;
  }
  QueueCv.notify_all();
  if (Writer.joinable())
    Writer.join();
}

void TieredCacheBackend::writeBackLoop() {
  while (true) {
    WriteBack Job;
    {
      std::unique_lock<std::mutex> Guard(QueueMutex);
      QueueCv.wait(Guard, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping with a drained queue.
      Job = std::move(Queue.front());
      Queue.pop_front();
      ++InFlight;
    }
    if (Remote->put(Job.Name, Job.Bytes))
      FGBS_COUNTER_ADD("db.cache.tier.writebacks", 1);
    else
      FGBS_COUNTER_ADD("db.cache.tier.writeback_failures", 1);
    {
      std::lock_guard<std::mutex> Guard(QueueMutex);
      --InFlight;
    }
    DrainCv.notify_all();
  }
}

void TieredCacheBackend::enqueueWriteBack(const std::string &Name,
                                          std::string Bytes) {
  {
    std::lock_guard<std::mutex> Guard(QueueMutex);
    if (Stopping)
      return;
    // A backend that only reads never pays for the thread.  It starts
    // before the job is queued, so a failed start (std::system_error)
    // leaves no job that no thread will ever take.
    if (!Writer.joinable())
      Writer = std::thread([this] { writeBackLoop(); });
    Queue.push_back({Name, std::move(Bytes)});
  }
  QueueCv.notify_one();
}

void TieredCacheBackend::flushWriteBacks() {
  std::unique_lock<std::mutex> Guard(QueueMutex);
  DrainCv.wait(Guard, [this] { return Queue.empty() && InFlight == 0; });
}

bool TieredCacheBackend::exists(const std::string &Name) const {
  if (Local->exists(Name))
    return true;
  return replicated(Name) && Remote->exists(Name);
}

bool TieredCacheBackend::get(const std::string &Name,
                             std::string &BytesOut) const {
  if (Local->get(Name, BytesOut)) {
    FGBS_COUNTER_ADD("db.cache.tier.local_hits", 1);
    return true;
  }
  if (!replicated(Name) || !Remote->get(Name, BytesOut))
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
  if (replicated(Name))
    enqueueWriteBack(Name, std::string(Bytes));
  return true;
}

bool TieredCacheBackend::remove(const std::string &Name) {
  // A queued write-back of this very name must not republish it to the
  // remote tier after the remove; drain the queue first.
  if (replicated(Name))
    flushWriteBacks();
  bool RemovedLocal = Local->remove(Name);
  bool RemovedRemote = replicated(Name) && Remote->remove(Name);
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
