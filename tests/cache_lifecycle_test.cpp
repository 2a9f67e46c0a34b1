//===- tests/cache_lifecycle_test.cpp - cache locking + eviction ----------===//
//
// The measurement cache's lifecycle layer: entry mtimes as last use,
// LRU/age eviction, atomic publish, typed lock-timeout and lock-error
// stores, and the cross-process single-simulation guarantee of
// buildMeasurementDatabase.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"

#include "fgbs/obs/Metrics.h"
#include "fgbs/suites/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace fgbs;

namespace {

SyntheticConfig tinyConfig() {
  SyntheticConfig Cfg;
  Cfg.NumApplications = 1;
  Cfg.CodeletsPerApp = 3;
  Cfg.MinFootprintBytes = 64 << 10;
  Cfg.MaxFootprintBytes = 1 << 20;
  return Cfg;
}

/// A scratch directory unique to the running test, removed on scope
/// exit.
struct TempDir {
  std::filesystem::path Path;
  explicit TempDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             ("fgbs_lifecycle_test_" + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
};

/// Shared tiny database; simulated once for the whole binary.
class CacheLifecycleTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    TheSuite = new Suite(makeSyntheticSuite(tinyConfig()));
    Targets = {makeAtom()};
    Db = new MeasurementDatabase(*TheSuite, makeNehalem(), Targets);
    Key = measurementKey(*TheSuite, makeNehalem(), Targets);
  }
  static void TearDownTestSuite() {
    delete Db;
    delete TheSuite;
    Db = nullptr;
    TheSuite = nullptr;
  }

  static Suite *TheSuite;
  static std::vector<Machine> Targets;
  static MeasurementDatabase *Db;
  static std::uint64_t Key;
};

Suite *CacheLifecycleTest::TheSuite = nullptr;
std::vector<Machine> CacheLifecycleTest::Targets;
MeasurementDatabase *CacheLifecycleTest::Db = nullptr;
std::uint64_t CacheLifecycleTest::Key = 0;

namespace fs = std::filesystem;

/// Sets \p Name's mtime \p SecondsAgo seconds back: what a long-lived
/// cache directory accumulates over time.
void age(const TempDir &Dir, const std::string &Name, int SecondsAgo) {
  fs::last_write_time(Dir.Path / Name, fs::file_time_type::clock::now() -
                                           std::chrono::seconds(SecondsAgo));
}

/// Seconds since \p Name's mtime, its last use.
std::int64_t secondsSinceUse(const TempDir &Dir, const std::string &Name) {
  return std::chrono::duration_cast<std::chrono::seconds>(
             fs::file_time_type::clock::now() -
             fs::last_write_time(Dir.Path / Name))
      .count();
}

} // namespace

//===----------------------------------------------------------------------===//
// Atomic publish and last use
//===----------------------------------------------------------------------===//

TEST_F(CacheLifecycleTest, StorePublishesAtomicallyAndLeavesNoTempFiles) {
  TempDir Dir("atomic");
  MeasurementCache Cache(Dir.Path.string());
  ASSERT_EQ(Cache.store(*Db, Key), MeasurementCacheError::None);
  EXPECT_TRUE(Cache.exists(Key));
  // The entry and its writer lock are the whole directory: no temp file
  // and no side file of bookkeeping.
  std::vector<std::string> Files;
  for (const auto &Entry : fs::directory_iterator(Dir.Path))
    Files.push_back(Entry.path().filename().string());
  std::sort(Files.begin(), Files.end());
  const std::string Name = measurementCacheFileName(Key);
  EXPECT_EQ(Files, (std::vector<std::string>{Name, Name + ".lock"}));
}

TEST_F(CacheLifecycleTest, LoadRefreshesAStaleEntry) {
  TempDir Dir("refresh_stale");
  MeasurementCache Cache(Dir.Path.string());
  ASSERT_EQ(Cache.store(*Db, Key), MeasurementCacheError::None);
  const std::string Name = measurementCacheFileName(Key);
  age(Dir, Name, 2 * 3600);
  ASSERT_TRUE(Cache.load(*TheSuite, makeNehalem(), Targets, Key));
  // The load is the entry's last use, recorded as its mtime.
  EXPECT_LT(secondsSinceUse(Dir, Name), 5);
}

TEST_F(CacheLifecycleTest, LoadLeavesAFreshEntryAlone) {
  TempDir Dir("refresh_fresh");
  MeasurementCache Cache(Dir.Path.string());
  ASSERT_EQ(Cache.store(*Db, Key), MeasurementCacheError::None);
  const std::string Name = measurementCacheFileName(Key);
  // Younger than kEntryRefreshSeconds: a warm load writes nothing.
  age(Dir, Name, static_cast<int>(kEntryRefreshSeconds) / 2);
  const fs::file_time_type Before = fs::last_write_time(Dir.Path / Name);
  ASSERT_TRUE(Cache.load(*TheSuite, makeNehalem(), Targets, Key));
  EXPECT_EQ(fs::last_write_time(Dir.Path / Name), Before);
}

TEST_F(CacheLifecycleTest, LoadRoundTripsThroughTheBackend) {
  TempDir Dir("roundtrip");
  MeasurementCache Cache(Dir.Path.string());
  ASSERT_EQ(Cache.store(*Db, Key), MeasurementCacheError::None);
  MeasurementLoadResult R = Cache.load(*TheSuite, makeNehalem(), Targets, Key);
  ASSERT_TRUE(R) << measurementCacheErrorName(R.Error) << ": " << R.Message;
  EXPECT_EQ(serializeMeasurements(*R.Db, Key), serializeMeasurements(*Db, Key));
  // An absent key is the typed Io error, not undefined behaviour.
  MeasurementLoadResult Missing =
      Cache.load(*TheSuite, makeNehalem(), Targets, Key + 1);
  EXPECT_FALSE(Missing);
  EXPECT_EQ(Missing.Error, MeasurementCacheError::Io);
}

TEST_F(CacheLifecycleTest, SaveMeasurementsFileLeavesNoTempBehind) {
  // A measurements file saved at a path of its own, outside any cache:
  // the serialized bytes through atomicWriteFile, read back and parsed.
  TempDir Dir("plain_save");
  std::string Path = (Dir.Path / "direct.v1").string();
  ASSERT_TRUE(atomicWriteFile(Path, serializeMeasurements(*Db, Key)));
  std::string Bytes;
  ASSERT_TRUE(readWholeFile(Path, Bytes));
  MeasurementLoadResult R =
      parseMeasurements(Bytes, *TheSuite, makeNehalem(), Targets, Key);
  EXPECT_TRUE(R) << R.Message;
  std::size_t Files = 0;
  for (const auto &Entry : fs::directory_iterator(Dir.Path)) {
    (void)Entry;
    ++Files;
  }
  EXPECT_EQ(Files, 1u);
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

TEST_F(CacheLifecycleTest, PruneKeepsTheMostRecentlyUsedEntries) {
  TempDir Dir("lru");
  MeasurementCache Cache(Dir.Path.string());
  // Five distinct keys over the same payload bytes (store() stamps the
  // key it is given; only the file names and mtimes differ).
  std::vector<std::uint64_t> Keys = {Key, Key + 1, Key + 2, Key + 3, Key + 4};
  for (std::uint64_t K : Keys)
    ASSERT_EQ(Cache.store(*Db, K), MeasurementCacheError::None);
  const std::uint64_t EntryBytes =
      fs::file_size(Dir.Path / measurementCacheFileName(Keys[0]));

  // Ascending last use: Keys[4] is the most recently used.
  for (std::size_t I = 0; I < Keys.size(); ++I)
    age(Dir, measurementCacheFileName(Keys[I]),
        1000 - 100 * static_cast<int>(I));

  // Budget for exactly two entries: the two newest survive.
  LocalDirBackend Local(Dir.Path.string());
  CachePruneStats Stats =
      pruneMeasurementEntries(Local, 2 * EntryBytes + EntryBytes / 2, 0);
  EXPECT_EQ(Stats.Entries, Keys.size());
  EXPECT_EQ(Stats.Removed, Keys.size() - 2);
  EXPECT_EQ(Stats.BytesAfter, 2 * EntryBytes);
  EXPECT_LE(Stats.BytesAfter, 2 * EntryBytes + EntryBytes / 2);
  EXPECT_FALSE(Cache.exists(Keys[0]));
  EXPECT_FALSE(Cache.exists(Keys[1]));
  EXPECT_FALSE(Cache.exists(Keys[2]));
  EXPECT_TRUE(Cache.exists(Keys[3]));
  EXPECT_TRUE(Cache.exists(Keys[4]));
}

TEST_F(CacheLifecycleTest, PruneStopsAtTheFirstEntryThatDoesNotFit) {
  // Newest first: a small entry, a large one, an older small one.  The
  // large one does not fit next to the newest, so it and everything
  // older go, even the small entry that would have fitted on its own:
  // what stays is a most-recently-used prefix.
  TempDir Dir("misfit");
  LocalDirBackend Local(Dir.Path.string());
  const std::string Newest = "fgbs-meas-00000000000000c1.v1";
  const std::string Large = "fgbs-meas-00000000000000c2.v1";
  const std::string Oldest = "fgbs-meas-00000000000000c3.v1";
  ASSERT_TRUE(Local.put(Newest, std::string(1000, 'n')));
  ASSERT_TRUE(Local.put(Large, std::string(5000, 'l')));
  ASSERT_TRUE(Local.put(Oldest, std::string(1000, 'o')));
  age(Dir, Large, 100);
  age(Dir, Oldest, 200);

  CachePruneStats Stats = pruneMeasurementEntries(Local, 2500, 0);
  EXPECT_EQ(Stats.Entries, 3u);
  EXPECT_EQ(Stats.Removed, 2u);
  EXPECT_EQ(Stats.BytesBefore, 7000u);
  EXPECT_EQ(Stats.BytesAfter, 1000u);
  EXPECT_TRUE(Local.exists(Newest));
  EXPECT_FALSE(Local.exists(Large));
  EXPECT_FALSE(Local.exists(Oldest));
}

TEST_F(CacheLifecycleTest, PruneRanksTheJustStoredEntryFirst) {
  // Same whole-second mtime, and the stored entry's name sorts second:
  // the prune its store triggers still keeps it.
  TempDir Dir("just_stored");
  LocalDirBackend Local(Dir.Path.string());
  const std::string Older = "fgbs-meas-00000000000000d1.v1";
  const std::string Stored = "fgbs-meas-00000000000000d2.v1";
  ASSERT_TRUE(Local.put(Older, std::string(1000, 'o')));
  ASSERT_TRUE(Local.put(Stored, std::string(1000, 's')));
  const fs::file_time_type Tie = fs::last_write_time(Dir.Path / Older);
  fs::last_write_time(Dir.Path / Stored, Tie);

  EXPECT_EQ(pruneMeasurementEntries(Local, 1500, 0, Stored).Removed, 1u);
  EXPECT_TRUE(Local.exists(Stored));
  EXPECT_FALSE(Local.exists(Older));
}

TEST_F(CacheLifecycleTest, PruneEvictsEntriesPastTheAgeBound) {
  TempDir Dir("age");
  MeasurementCache Cache(Dir.Path.string());
  ASSERT_EQ(Cache.store(*Db, Key), MeasurementCacheError::None);
  ASSERT_EQ(Cache.store(*Db, Key + 1), MeasurementCacheError::None);
  age(Dir, measurementCacheFileName(Key), 10);
  age(Dir, measurementCacheFileName(Key + 1), 100000);

  LocalDirBackend Local(Dir.Path.string());
  CachePruneStats Stats =
      pruneMeasurementEntries(Local, 0, /*MaxAgeSeconds=*/3600);
  EXPECT_EQ(Stats.Removed, 1u);
  EXPECT_TRUE(Cache.exists(Key));
  EXPECT_FALSE(Cache.exists(Key + 1));
}

TEST_F(CacheLifecycleTest, PruneToOneByteEmptiesTheCache) {
  TempDir Dir("one_byte");
  MeasurementCache Cache(Dir.Path.string());
  ASSERT_EQ(Cache.store(*Db, Key), MeasurementCacheError::None);
  LocalDirBackend Local(Dir.Path.string());
  CachePruneStats Stats = pruneMeasurementEntries(Local, 1, 0);
  EXPECT_EQ(Stats.Removed, 1u);
  EXPECT_EQ(Stats.BytesAfter, 0u);
  EXPECT_FALSE(Cache.exists(Key));
}

//===----------------------------------------------------------------------===//
// Typed lock errors
//===----------------------------------------------------------------------===//

TEST_F(CacheLifecycleTest, StoreReportsLockTimeoutWhileEntryLockIsHeld) {
  TempDir Dir("lock_timeout");
  MeasurementCache Cache(Dir.Path.string());
  Cache.LockOptions.TimeoutMs = 60;
  Cache.LockOptions.InitialBackoffMs = 1;

  FileLock Holder(Cache.backend().lockPath(measurementCacheFileName(Key)));
  ASSERT_TRUE(Holder.acquire());
  std::string Message;
  EXPECT_EQ(Cache.store(*Db, Key, /*EntryLockHeld=*/false, &Message),
            MeasurementCacheError::LockTimeout);
  EXPECT_FALSE(Message.empty());
  EXPECT_FALSE(Cache.exists(Key)) << "a timed-out store must write nothing";
  EXPECT_STREQ(measurementCacheErrorName(MeasurementCacheError::LockTimeout),
               "lock_timeout");

  // A caller that already holds the entry lock stores through it.
  EXPECT_EQ(Cache.store(*Db, Key, /*EntryLockHeld=*/true),
            MeasurementCacheError::None);
  EXPECT_TRUE(Cache.exists(Key));
}

/// A local directory whose writer locks live in a directory that does
/// not exist, so every lock acquisition fails to open its file.  Unlike
/// a read-only directory, that fails for root too.
class UnopenableLockBackend final : public CacheBackend {
public:
  explicit UnopenableLockBackend(const std::string &Dir)
      : Dir(Dir), Local(Dir) {}
  bool exists(const std::string &Name) const override {
    return Local.exists(Name);
  }
  bool get(const std::string &Name, std::string &BytesOut) const override {
    return Local.get(Name, BytesOut);
  }
  bool put(const std::string &Name, std::string_view Bytes) override {
    return Local.put(Name, Bytes);
  }
  bool remove(const std::string &Name) override { return Local.remove(Name); }
  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override {
    return Local.scan(Prefix, Suffix);
  }
  std::string lockPath(const std::string &Name) const override {
    return Dir + "/no-such-dir/" + Name + ".lock";
  }

private:
  std::string Dir;
  LocalDirBackend Local;
};

TEST_F(CacheLifecycleTest, StoreReportsLockErrorsAsIo) {
  TempDir Dir("lock_error");
  MeasurementCache Cache(
      std::make_unique<UnopenableLockBackend>(Dir.Path.string()));
  // A lock error mistaken for a held lock would poll this long.
  Cache.LockOptions.TimeoutMs = 2000;
  std::string Message;
  EXPECT_EQ(Cache.store(*Db, Key, /*EntryLockHeld=*/false, &Message),
            MeasurementCacheError::Io);
  EXPECT_NE(Message.find("no-such-dir"), std::string::npos) << Message;
  EXPECT_FALSE(Cache.exists(Key)) << "a store without its lock writes nothing";
}

//===----------------------------------------------------------------------===//
// Cross-process cold-run coordination
//===----------------------------------------------------------------------===//

TEST_F(CacheLifecycleTest, ConcurrentForkedColdBuildsSimulateExactlyOnce) {
  TempDir Dir("fork_race");
  constexpr int NumChildren = 3;

  std::vector<pid_t> Children;
  for (int C = 0; C < NumChildren; ++C) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: one cold buildMeasurementDatabase against the shared
      // directory, then report what happened through its own counters.
      obs::MetricsRegistry::global().reset();
      obs::setEnabled(true);
      DatabaseBuildOptions Options;
      Options.CacheDir = Dir.Path.string();
      auto Built =
          buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets, Options);
      if (!Built)
        ::_exit(2);
      std::string Bytes = serializeMeasurements(*Built, Key);
      std::ofstream Out(Dir.Path / ("child-" + std::to_string(C)),
                        std::ios::trunc);
      Out << obs::counterTotal("db.cache.stores") << " "
          << obs::counterTotal("db.cache.hits") << " "
          << obs::counterTotal("sim.execute") << " " << Bytes.size() << "\n";
      Out.flush();
      ::_exit(Out ? 0 : 2);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int St = 0;
    ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
    ASSERT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
  }

  std::uint64_t TotalStores = 0, TotalHits = 0, SimulatingChildren = 0;
  std::vector<std::uint64_t> Sizes;
  for (int C = 0; C < NumChildren; ++C) {
    std::ifstream In(Dir.Path / ("child-" + std::to_string(C)));
    std::uint64_t Stores = 0, Hits = 0, Sims = 0, Size = 0;
    ASSERT_TRUE(In >> Stores >> Hits >> Sims >> Size);
    TotalStores += Stores;
    TotalHits += Hits;
    SimulatingChildren += Sims > 0 ? 1 : 0;
    Sizes.push_back(Size);
  }
  // The contention guarantee: one simulation and one store across the
  // fleet, everyone else loads, and every child ends with the same
  // database bytes.
  EXPECT_EQ(TotalStores, 1u);
  EXPECT_EQ(SimulatingChildren, 1u);
  EXPECT_EQ(TotalHits, static_cast<std::uint64_t>(NumChildren) - 1);
  for (std::uint64_t Size : Sizes)
    EXPECT_EQ(Size, Sizes.front());
  // And the published entry is loadable by a fresh process.
  MeasurementCache Cache(Dir.Path.string());
  EXPECT_TRUE(Cache.exists(Key));
}

TEST_F(CacheLifecycleTest, BuildAutoPrunesWhenAByteBudgetIsConfigured) {
  TempDir Dir("auto_prune");
  // Seed an older entry under a different key, then build with a budget
  // only big enough for one entry: the store must evict the older one.
  MeasurementCache Cache(Dir.Path.string());
  ASSERT_EQ(Cache.store(*Db, Key + 99), MeasurementCacheError::None);
  const std::uint64_t EntryBytes =
      fs::file_size(Dir.Path / measurementCacheFileName(Key + 99));
  age(Dir, measurementCacheFileName(Key + 99), 5000);

  DatabaseBuildOptions Options;
  Options.CacheDir = Dir.Path.string();
  Options.CacheMaxBytes = EntryBytes + EntryBytes / 2;
  auto Built =
      buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets, Options);
  ASSERT_TRUE(Built);
  EXPECT_TRUE(Cache.exists(Key)) << "the fresh entry survives the prune";
  EXPECT_FALSE(Cache.exists(Key + 99)) << "the LRU entry is evicted";
}
