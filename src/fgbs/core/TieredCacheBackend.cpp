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

namespace {

/// Both tiers' writer elections as one lock.  Acquire order is local
/// (cheap, same-host, kernel-released on crash) then remote (fleet
/// lease); release order is the reverse, with the write-back queue
/// flushed before the remote lease goes so the next grantee sees the
/// published entry.
class TieredWriterLock final : public WriterLock {
public:
  TieredWriterLock(TieredCacheBackend &Tiered,
                   std::unique_ptr<WriterLock> LocalLock,
                   std::unique_ptr<WriterLock> RemoteLock)
      : Tiered(Tiered), LocalLock(std::move(LocalLock)),
        RemoteLock(std::move(RemoteLock)) {}

  ~TieredWriterLock() override { release(); }

  Result acquire(const FileLock::Options &O) override {
    Result LocalResult = LocalLock->acquire(O);
    if (!LocalResult)
      return LocalResult;
    Result RemoteResult = RemoteLock->acquire(O);
    if (!RemoteResult) {
      LocalLock->release();
      return RemoteResult;
    }
    Held = true;
    Result Out;
    Out.Acquired = true;
    Out.WaitedMs = LocalResult.WaitedMs + RemoteResult.WaitedMs;
    return Out;
  }

  void heartbeat() override {
    LocalLock->heartbeat();
    RemoteLock->heartbeat();
  }

  void release() override {
    if (!Held)
      return;
    Held = false;
    // Publish-before-unlock: the fleet's next grantee double-checks the
    // remote cache before simulating, so the entry must be there first.
    Tiered.flushWriteBacks();
    RemoteLock->release();
    LocalLock->release();
  }

private:
  TieredCacheBackend &Tiered;
  std::unique_ptr<WriterLock> LocalLock;
  std::unique_ptr<WriterLock> RemoteLock;
  bool Held = false;
};

} // namespace

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

std::unique_ptr<WriterLock>
TieredCacheBackend::writerLock(const std::string &Name) {
  if (!replicated(Name))
    return Local->writerLock(Name);
  return std::make_unique<TieredWriterLock>(*this, Local->writerLock(Name),
                                            Remote->writerLock(Name));
}
