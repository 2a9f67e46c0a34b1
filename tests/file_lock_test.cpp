//===- tests/file_lock_test.cpp - support/FileLock ------------------------===//
//
// The cross-process lock under the measurement cache: mutual exclusion
// across threads and forked processes, timeout behaviour, and a typed
// error for a lock file that cannot be opened.
//
//===----------------------------------------------------------------------===//

#include "fgbs/support/FileLock.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace fgbs;

namespace {

/// A scratch directory unique to the running test, removed on scope
/// exit.
struct TempDir {
  std::filesystem::path Path;
  explicit TempDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             ("fgbs_lock_test_" + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }

  std::string file(const std::string &Name) const {
    return (Path / Name).string();
  }
};

FileLock::Options fastOptions() {
  FileLock::Options O;
  O.TimeoutMs = 10000;
  O.InitialBackoffMs = 1;
  O.MaxBackoffMs = 5;
  return O;
}

} // namespace

TEST(FileLockTest, AcquireReleaseRoundTrip) {
  TempDir Dir("roundtrip");
  FileLock Lock(Dir.file("x.lock"));
  EXPECT_FALSE(Lock.held());
  FileLock::AcquireResult R = Lock.acquire(fastOptions());
  ASSERT_TRUE(R) << R.Message;
  EXPECT_TRUE(Lock.held());
  Lock.release();
  EXPECT_FALSE(Lock.held());
  // Re-acquirable after release.
  EXPECT_TRUE(Lock.acquire(fastOptions()));
}

TEST(FileLockTest, EmptyPathIsANoOpLock) {
  FileLock Lock("");
  FileLock::AcquireResult R = Lock.acquire(fastOptions());
  EXPECT_TRUE(R);
  EXPECT_TRUE(Lock.held());
  Lock.release();
}

TEST(FileLockTest, SecondHolderTimesOutWhileHeld) {
  TempDir Dir("timeout");
  FileLock First(Dir.file("x.lock"));
  ASSERT_TRUE(First.acquire(fastOptions()));

  FileLock Second(Dir.file("x.lock"));
  FileLock::Options Once = fastOptions();
  Once.TimeoutMs = 0; // One poll, no wait.
  EXPECT_EQ(Second.acquire(Once).St, FileLock::Status::Timeout);
  FileLock::Options Short = fastOptions();
  Short.TimeoutMs = 60;
  FileLock::AcquireResult R = Second.acquire(Short);
  EXPECT_EQ(R.St, FileLock::Status::Timeout);
  EXPECT_GE(R.WaitedMs, Short.TimeoutMs);
  EXPECT_FALSE(Second.held());

  // Release frees the waiter immediately.
  First.release();
  EXPECT_TRUE(Second.acquire(fastOptions()));
}

TEST(FileLockTest, MultiThreadMutualExclusion) {
  TempDir Dir("threads");
  const std::string LockPath = Dir.file("x.lock");
  constexpr int NumThreads = 6;
  constexpr int Increments = 25;

  // The guarded resource is a deliberately non-atomic counter; without
  // mutual exclusion the read-modify-write cycles interleave and the
  // final count falls short.
  long Counter = 0;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < Increments; ++I) {
        FileLock Lock(LockPath);
        FileLock::AcquireResult R = Lock.acquire(fastOptions());
        ASSERT_TRUE(R) << R.Message;
        long V = Counter;
        std::this_thread::yield();
        Counter = V + 1;
        Lock.release();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Counter, static_cast<long>(NumThreads) * Increments);
}

TEST(FileLockTest, ForkedProcessMutualExclusion) {
  TempDir Dir("fork");
  const std::string LockPath = Dir.file("x.lock");
  const std::string CounterPath = Dir.file("counter");
  {
    std::ofstream(CounterPath) << 0 << "\n";
  }

  constexpr int NumChildren = 4;
  constexpr int Increments = 10;
  std::vector<pid_t> Children;
  for (int C = 0; C < NumChildren; ++C) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: lock, read-increment-rewrite the counter file, unlock.
      for (int I = 0; I < Increments; ++I) {
        FileLock Lock(LockPath);
        if (!Lock.acquire(fastOptions()))
          ::_exit(2);
        long V = 0;
        {
          std::ifstream In(CounterPath);
          In >> V;
        }
        {
          std::ofstream Out(CounterPath, std::ios::trunc);
          Out << V + 1 << "\n";
        }
        Lock.release();
      }
      ::_exit(0);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int St = 0;
    ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
    EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
  }
  long Final = -1;
  std::ifstream(CounterPath) >> Final;
  EXPECT_EQ(Final, static_cast<long>(NumChildren) * Increments);
}

TEST(FileLockTest, MissingDirectoryIsAnErrorNotATimeout) {
  TempDir Dir("missing_dir");
  FileLock Lock(Dir.file("absent/x.lock"));
  FileLock::AcquireResult R = Lock.acquire(fastOptions());
  EXPECT_EQ(R.St, FileLock::Status::Error);
  EXPECT_LT(R.WaitedMs, 1000u) << "an unusable lock file must not be polled";
  EXPECT_NE(R.Message.find("absent/x.lock"), std::string::npos) << R.Message;
  EXPECT_FALSE(Lock.held());
}

TEST(FileLockTest, FlockModeLeavesTheFileOnRelease) {
  TempDir Dir("flock_release");
  const std::string LockPath = Dir.file("x.lock");
  FileLock Lock(LockPath);
  ASSERT_TRUE(Lock.acquire(fastOptions()));
  Lock.release();
  // Deliberate: unlinking a flock file would allow the two-inode race.
  EXPECT_TRUE(std::filesystem::exists(LockPath));
}
