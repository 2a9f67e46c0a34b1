//===- fgbs/support/FileLock.h - Cross-process advisory lock ---*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cross-process (and cross-thread) advisory file lock with timeout
/// and exponential backoff: the per-entry writer lock under the
/// measurement cache (core/MeasurementCache).
///
/// The lock is `flock(LOCK_EX)` on the lock file's inode.  The kernel
/// releases it when the holder exits for any reason, so a crashed
/// writer can never wedge waiters.  The file is deliberately *not*
/// unlinked on release: unlink-then-reopen would let a new opener
/// create a second inode and hand two processes "the" lock (the classic
/// flock race).  A leftover `.lock` file is inert.  On a filesystem
/// where flock fails (some network mounts), acquire() reports
/// Status::Error; the cache then simulates without storing.
///
/// A FileLock constructed with an empty path is a no-op lock that
/// always acquires — backends that need no cross-process coordination
/// hand one out.
///
/// Waiting is polling with exponential backoff (InitialBackoffMs
/// doubling up to MaxBackoffMs) under a hard TimeoutMs deadline; the
/// result reports how long the caller actually waited so the cache
/// layer can export `db.cache.lock.waited_ms`.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SUPPORT_FILELOCK_H
#define FGBS_SUPPORT_FILELOCK_H

#include <cstdint>
#include <string>

namespace fgbs {

/// An advisory cross-process lock bound to one filesystem path.
/// Movable-from-nowhere by design: one object, one (potential) holder.
class FileLock {
public:
  struct Options {
    /// Hard deadline for acquire(); 0 polls exactly once.
    std::uint64_t TimeoutMs = 600000;
    /// First backoff sleep; doubles per failed poll.
    std::uint64_t InitialBackoffMs = 5;
    /// Backoff ceiling.
    std::uint64_t MaxBackoffMs = 250;
  };

  enum class Status {
    Acquired, ///< The lock is held by this object.
    Timeout,  ///< TimeoutMs elapsed with the lock still held elsewhere.
    Error,    ///< The lock file is unusable (open or flock failed).
  };

  struct AcquireResult {
    Status St = Status::Error;
    /// Wall time spent inside acquire().
    std::uint64_t WaitedMs = 0;
    std::string Message;

    explicit operator bool() const { return St == Status::Acquired; }
  };

  explicit FileLock(std::string Path);
  ~FileLock();

  FileLock(const FileLock &) = delete;
  FileLock &operator=(const FileLock &) = delete;

  /// Blocks (poll + backoff) until the lock is held, the deadline
  /// passes, or the lock file errors.
  AcquireResult acquire(const Options &O);
  AcquireResult acquire();

  /// Releases if held (also run by the destructor).
  void release();

  bool held() const { return Held; }
  const std::string &path() const { return LockPath; }

private:
  /// One attempt.  False with \p Error empty when the lock is held
  /// elsewhere; false with \p Error set when the lock file is unusable.
  bool tryAcquireOnce(std::string &Error);

  std::string LockPath;
  int Fd = -1;
  bool Held = false;
};

} // namespace fgbs

#endif // FGBS_SUPPORT_FILELOCK_H
