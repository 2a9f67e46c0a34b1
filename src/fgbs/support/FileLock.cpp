//===- fgbs/support/FileLock.cpp - Cross-process advisory lock ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/support/FileLock.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace fgbs;

namespace {

std::uint64_t steadyMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

FileLock::FileLock(std::string Path) : LockPath(std::move(Path)) {}

FileLock::~FileLock() { release(); }

bool FileLock::tryAcquireOnce(std::string &Error) {
  if (Held)
    return true;
  if (LockPath.empty()) {
    Held = true; // No-op lock: the backend needs no coordination.
    return true;
  }
  int NewFd = ::open(LockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (NewFd < 0) {
    Error = "open('" + LockPath + "'): " + std::strerror(errno);
    return false;
  }
  if (::flock(NewFd, LOCK_EX | LOCK_NB) == 0) {
    Fd = NewFd;
    Held = true;
    return true;
  }
  int E = errno;
  ::close(NewFd);
  if (E != EWOULDBLOCK && E != EAGAIN && E != EINTR)
    Error = "flock('" + LockPath + "'): " + std::strerror(E);
  return false; // With no Error: held elsewhere, poll again later.
}

FileLock::AcquireResult FileLock::acquire() { return acquire(Options()); }

FileLock::AcquireResult FileLock::acquire(const Options &O) {
  AcquireResult R;
  const std::uint64_t Start = steadyMs();
  std::uint64_t Backoff = O.InitialBackoffMs ? O.InitialBackoffMs : 1;
  for (;;) {
    std::string Error;
    bool Ok = tryAcquireOnce(Error);
    R.WaitedMs = steadyMs() - Start;
    if (Ok) {
      R.St = Status::Acquired;
      return R;
    }
    if (!Error.empty()) {
      R.St = Status::Error;
      R.Message = std::move(Error);
      return R;
    }
    if (R.WaitedMs >= O.TimeoutMs) {
      R.St = Status::Timeout;
      R.Message = "lock '" + LockPath + "' still held after " +
                  std::to_string(R.WaitedMs) + " ms";
      return R;
    }
    std::uint64_t SleepMs = std::min(Backoff, O.TimeoutMs - R.WaitedMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
    Backoff = std::min(Backoff * 2, O.MaxBackoffMs ? O.MaxBackoffMs : 1);
  }
}

void FileLock::release() {
  if (!Held)
    return;
  // Leave the file: unlinking would let a fresh opener lock a new inode
  // concurrently with a waiter that still polls the old one.
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Held = false;
}
