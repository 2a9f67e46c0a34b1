//===- tests/remote_cache_test.cpp - the networked cache tier -------------===//
//
// The remote measurement-cache tier end to end: entry-name validation,
// the fgbs_cached server's opcode surface and on-disk layout over a real
// loopback socket, put-time pruning of whole-server budgets in both
// namespaces, a prompt stop, tiered read-through/write-through semantics,
// typed degradation when the server dies, and the headline guarantee —
// a second host with a cold local directory trains with zero simulation
// and byte-identical results.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/core/TieredCacheBackend.h"
#include "fgbs/net/CacheServer.h"
#include "fgbs/obs/Json.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/service/Snapshot.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/BinaryIo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace fgbs;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    static std::atomic<unsigned> Serial{0};
    Path = fs::temp_directory_path() /
           ("fgbs_remote_cache_" + Tag + "_" +
            std::to_string(static_cast<long>(::getpid())) + "_" +
            std::to_string(Serial.fetch_add(1)));
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() { fs::remove_all(Path); }
};

net::CacheServerConfig loopbackConfig(const TempDir &Dir) {
  net::CacheServerConfig Config;
  Config.Root = (Dir.Path / "server").string();
  Config.Threads = 2;
  Config.BindAddr = "127.0.0.1";
  return Config;
}

RemoteCacheConfig clientConfig(const net::CacheServer &Server) {
  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = Server.port();
  return Config;
}

/// A client whose server is gone: one attempt, tight deadlines, so
/// degradation paths run in milliseconds.
RemoteCacheConfig deadServerConfig() {
  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = 1;
  Config.ConnectTimeoutMs = 200;
  Config.RequestTimeoutMs = 200;
  Config.MaxAttempts = 1;
  return Config;
}

SyntheticConfig tinyConfig() {
  SyntheticConfig Cfg;
  Cfg.NumApplications = 1;
  Cfg.CodeletsPerApp = 3;
  Cfg.MinFootprintBytes = 64 << 10;
  Cfg.MaxFootprintBytes = 1 << 20;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Server surface over a live loopback connection
//===----------------------------------------------------------------------===//

TEST(CacheServer, EntryNameValidation) {
  EXPECT_TRUE(net::isValidEntryName("fgbs-meas-0123456789abcdef.v1"));
  EXPECT_TRUE(net::isValidEntryName("other-entry.bin"));
  EXPECT_FALSE(net::isValidEntryName(""));
  EXPECT_FALSE(net::isValidEntryName("."));
  EXPECT_FALSE(net::isValidEntryName(".."));
  EXPECT_FALSE(net::isValidEntryName("../escape"));
  EXPECT_FALSE(net::isValidEntryName("dir/inside"));
  EXPECT_FALSE(net::isValidEntryName("back\\slash"));
  EXPECT_FALSE(net::isValidEntryName(std::string("nul\0byte", 8)));
  EXPECT_FALSE(net::isValidEntryName(std::string(256, 'a')));
}

TEST(CacheServer, EntriesAreFilesDirectlyUnderTheRoot) {
  // The root has a host cache directory's layout: one regular file per
  // entry, named by its wire name with '/' encoded as '~', and no
  // subdirectory.  Scan lists both back under their wire names.
  TempDir Dir("layout");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  const std::string Meas = "fgbs-meas-0000000100000002.v1";
  const std::string Sha = "model/layout/sha/" + std::string(64, 'b');
  ASSERT_TRUE(Client.put(Meas, "meas blob"));
  ASSERT_TRUE(Client.put(Sha, "model blob"));

  std::vector<std::string> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(Server.root())) {
    EXPECT_TRUE(E.is_regular_file()) << E.path();
    Files.push_back(E.path().filename().string());
  }
  std::sort(Files.begin(), Files.end());
  EXPECT_EQ(Files, (std::vector<std::string>{
                       Meas, LocalDirBackend::encodeFileName(Sha)}));
  EXPECT_EQ(Client.scan("", "").size(), 2u);
}

TEST(CacheServer, StopReturnsPromptlyAfterRacingAccepts) {
  // Every accept loop polls one shared listener.  When several wake for
  // one connection, the losers must go back to polling the stop flag
  // instead of blocking in accept(); a blocking listener wedged them
  // for good, and stop() then waited on their join forever.  stop() now
  // also shuts the listener down, which wakes a loop blocked in accept()
  // too.  CPU contention widens the window, so the connections arrive
  // under a burner on every core.
  TempDir Dir("stop");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.Threads = 16;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  std::atomic<bool> Burn{true};
  std::vector<std::thread> Burners;
  for (unsigned I = 0; I < std::max(2u, std::thread::hardware_concurrency());
       ++I)
    Burners.emplace_back([&Burn] {
      while (Burn.load(std::memory_order_relaxed)) {
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int Round = 0; Round < 40; ++Round) {
    net::Socket Conn =
        net::Socket::connectTo("127.0.0.1", Server.port(), 2000, &Error);
    EXPECT_TRUE(Conn.valid()) << Error;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::promise<void> Stopped;
  std::future<void> Done = Stopped.get_future();
  std::thread Stopper([&] {
    Server.stop();
    Stopped.set_value();
  });
  EXPECT_EQ(Done.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "stop() did not return within 10 s";
  Burn.store(false, std::memory_order_relaxed);
  for (std::thread &B : Burners)
    B.join();
  Stopper.join();
}

TEST(CacheServer, StopIsPromptWhenIdle) {
  // stop() shuts the listener down, which wakes every accept loop's poll
  // at once rather than at the end of its 250 ms slice.
  TempDir Dir("idle-stop");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.Threads = 4;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  // Let every accept loop reach its poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto Start = std::chrono::steady_clock::now();
  Server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::milliseconds(125))
      << "stop() of an idle server took half a poll slice or more";
}

TEST(CacheServer, TraversalNamesRejected) {
  TempDir Dir("traversal");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));
  EXPECT_FALSE(Client.put("../escape.v1", "evil"));
  EXPECT_FALSE(Client.exists("../escape.v1"));
  EXPECT_FALSE(fs::exists(Dir.Path / "escape.v1"));
}

TEST(CacheServer, MaxBytesEvictsMeasurementEntriesAfterPut) {
  // Room for two 10 kB entries: each put prunes the server's
  // measurement entries, so the third put leaves two behind.  Which one
  // goes depends on access times in whole seconds, so only the count
  // and the footprint are checked.
  TempDir Dir("prune");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.MaxBytes = 25000;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  const std::string Blob(10000, 'p');
  ASSERT_TRUE(Client.put("fgbs-meas-0000000000000001.v1", Blob));
  ASSERT_TRUE(Client.put("fgbs-meas-0000000100000002.v1", Blob));
  EXPECT_EQ(Client.scan("fgbs-meas-", ".v1").size(), 2u);
  ASSERT_TRUE(Client.put("fgbs-meas-0000000200000003.v1", Blob));

  std::uint64_t Footprint = 0;
  const std::vector<CacheEntry> Left = Client.scan("fgbs-meas-", ".v1");
  for (const CacheEntry &E : Left)
    Footprint += E.SizeBytes;
  EXPECT_EQ(Left.size(), 2u);
  EXPECT_LE(Footprint, Config.MaxBytes);
}

TEST(CacheServer, PutSurvivesASameSecondPrune) {
  // Two puts in one second tie on their whole-second mtimes, and the
  // older name sorts first; the prune the second put triggers still
  // keeps that put and evicts the first.
  TempDir Dir("samesecond");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.MaxBytes = 15000;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  const std::string Blob(10000, 'p');
  ASSERT_TRUE(Client.put("fgbs-meas-0000000000000001.v1", Blob));
  ASSERT_TRUE(Client.put("fgbs-meas-0000000000000002.v1", Blob));
  EXPECT_TRUE(Client.exists("fgbs-meas-0000000000000002.v1"));
  EXPECT_FALSE(Client.exists("fgbs-meas-0000000000000001.v1"));
}

TEST(CacheServer, AGetCountsAsUseUnderMaxAge) {
  // Two entries last written two hours ago; one is read back.  The next
  // put prunes to --max-age 3600: the read entry was used seconds ago
  // and stays, the unread one is evicted.
  TempDir Dir("maxage");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.MaxAgeSeconds = 3600;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  const std::string Read = "fgbs-meas-00000000000000a1.v1";
  const std::string Unread = "fgbs-meas-00000000000000a2.v1";
  ASSERT_TRUE(Client.put(Read, "read back"));
  ASSERT_TRUE(Client.put(Unread, "never read"));
  for (const std::string &Name : {Read, Unread})
    fs::last_write_time(fs::path(Server.root()) / Name,
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(2));
  std::string Bytes;
  ASSERT_TRUE(Client.get(Read, Bytes));
  ASSERT_TRUE(Client.put("fgbs-meas-00000000000000a3.v1", "fresh"));
  EXPECT_TRUE(Client.exists(Read));
  EXPECT_FALSE(Client.exists(Unread));
  EXPECT_TRUE(Client.exists("fgbs-meas-00000000000000a3.v1"));
}

TEST(CacheServer, ModelMaxBytesEvictsShaBlobsButNeverRefs) {
  // The model namespace prunes its sha/ blobs to --model-max-bytes
  // after each put into it; refs are exempt, so a tag whose blob aged
  // out dangles instead of vanishing.  The measurement budget is
  // unbounded and a measurement entry is untouched.
  TempDir Dir("modelprune");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.ModelMaxBytes = 1;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  const std::string Meas = "fgbs-meas-0000000000000001.v1";
  const std::string Sha = "model/pruned/sha/" + std::string(64, 'a');
  const std::string Ref = "model/pruned/ref/latest";
  ASSERT_TRUE(Client.put(Meas, std::string(10000, 'm')));
  ASSERT_TRUE(Client.put(Sha, std::string(10000, 's')));
  EXPECT_FALSE(Client.exists(Sha)) << "a blob over budget is evicted";
  ASSERT_TRUE(Client.put(Ref, std::string(10000, 'r')));
  EXPECT_TRUE(Client.exists(Ref)) << "refs are never budget-pruned";
  EXPECT_TRUE(Client.exists(Meas));

  ScanPrefixResult Models = Client.scanPrefix("model/pruned/");
  ASSERT_TRUE(static_cast<bool>(Models)) << Models.Message;
  ASSERT_EQ(Models.Entries.size(), 1u);
  EXPECT_EQ(Models.Entries[0].Name, Ref);
}

TEST(CacheServer, BudgetsBoundTheWholeServer) {
  // Each budget bounds its namespace across the whole server: 25,000
  // bytes keep two 10,000-byte measurement entries, and 15,000 bytes
  // keep one 10,000-byte model blob.  A budget split into per-directory
  // slices pruned each entry as soon as it was put.
  TempDir Dir("wholeserver");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.MaxBytes = 25000;
  Config.ModelMaxBytes = 15000;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  const std::string Blob(10000, 'w');
  const std::string First = "fgbs-meas-0000000000000001.v1";
  const std::string Second = "fgbs-meas-0000000100000002.v1";
  const std::string Sha = "model/whole/sha/" + std::string(64, 'c');
  ASSERT_TRUE(Client.put(First, Blob));
  ASSERT_TRUE(Client.put(Second, Blob));
  ASSERT_TRUE(Client.put(Sha, Blob));
  EXPECT_TRUE(Client.exists(First));
  EXPECT_TRUE(Client.exists(Second));
  EXPECT_TRUE(Client.exists(Sha));
}

TEST(CacheServer, SurvivesDamagedFramesFromOtherClients) {
  TempDir Dir("damage");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  // A raw client sends garbage; the server answers an error and drops
  // only that connection.
  {
    net::Socket Bad =
        net::Socket::connectTo("127.0.0.1", Server.port(), 1000, &Error);
    ASSERT_TRUE(Bad.valid()) << Error;
    const char Garbage[32] = "this is not a cachewire frame.";
    ASSERT_TRUE(Bad.sendAll(Garbage, sizeof(Garbage), 1000));
  }

  // A well-formed client is unaffected.
  RemoteCacheBackend Client(clientConfig(Server));
  EXPECT_TRUE(Client.ping());
  EXPECT_TRUE(Client.put("fgbs-meas-00000000000000aa.v1", "fine"));
}

// A request is read whole however its bytes are spaced: a put whose two
// halves arrive 400 ms apart, longer than the server's 250 ms stop-flag
// slice, is stored and answered Ok rather than read out of sync.
TEST(CacheServer, ReadsAFrameWhoseHalvesArriveApart) {
  TempDir Dir("split");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  const std::string Name = "fgbs-meas-00000000000000ab.v1";
  const std::string Blob(100 << 10, 'x');
  std::string Payload;
  binio::putStr(Payload, Name);
  Payload += Blob;
  const std::string Bytes = net::encodeFrame(net::Opcode::Put, Payload);
  const std::size_t Half = Bytes.size() / 2;
  net::Socket Conn =
      net::Socket::connectTo("127.0.0.1", Server.port(), 1000, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;
  ASSERT_TRUE(Conn.sendAll(Bytes.data(), Half, 1000));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_TRUE(Conn.sendAll(Bytes.data() + Half, Bytes.size() - Half, 1000));
  net::Frame Reply;
  ASSERT_EQ(net::readFrame(Conn, Reply, 2000), net::WireError::None);
  EXPECT_EQ(Reply.Op, net::Opcode::Ok) << net::opcodeName(Reply.Op);

  RemoteCacheBackend Client(clientConfig(Server));
  std::string Stored;
  ASSERT_TRUE(Client.get(Name, Stored));
  EXPECT_EQ(Stored, Blob);
}

// A client idling on its pooled connection does not hold the only
// worker: the server closes the idle connection after one slice and
// answers the next client, and the idle client's next request finds its
// connection closed and reconnects without spending its one attempt.
TEST(CacheServer, IdleClientDoesNotBlockAnother) {
  TempDir Dir("idle");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.Threads = 1;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  RemoteCacheConfig OneAttempt = clientConfig(Server);
  OneAttempt.MaxAttempts = 1;
  RemoteCacheBackend First(OneAttempt);
  EXPECT_FALSE(First.exists("fgbs-meas-00000000000000ac.v1"));

  OneAttempt.RequestTimeoutMs = 1000;
  RemoteCacheBackend Second(OneAttempt);
  const auto Start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Second.ping());
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(1));

  EXPECT_TRUE(First.ping());
}

TEST(CacheServer, StatsReportsFootprintAndCounters) {
  TempDir Dir("stats");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Backend(clientConfig(Server));

  ASSERT_TRUE(Backend.put("fgbs-meas-0000000000000001.v1", "0123456789"));
  ASSERT_TRUE(Backend.put("fgbs-meas-0000000100000000.v1", "01234"));
  // A model blob shares the directory and counts in its own namespace.
  ASSERT_TRUE(Backend.put("model/stats/sha/" + std::string(64, 'd'), "012"));
  // Hit/miss accounting is Get-only (Exists probes are free).
  std::string Bytes;
  EXPECT_TRUE(Backend.get("fgbs-meas-0000000000000001.v1", Bytes));  // hit
  EXPECT_FALSE(Backend.get("fgbs-meas-00000000000000ff.v1", Bytes)); // miss
  EXPECT_TRUE(Backend.exists("fgbs-meas-0000000000000001.v1"));
  EXPECT_FALSE(Backend.exists("fgbs-meas-00000000000000ff.v1"));

  RemoteCacheStats Stats;
  ASSERT_TRUE(Backend.statsRemote(Stats));
  EXPECT_EQ(Stats.Entries, 2u);
  EXPECT_EQ(Stats.Bytes, 15u);
  EXPECT_EQ(Stats.ModelEntries, 1u);
  EXPECT_EQ(Stats.ModelBytes, 3u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  Server.stop();
}

TEST(CacheServer, StatsCountsOnlyEntries) {
  // A put that triggers a prune leaves the entry and nothing else in
  // the directory, so the footprint is the entry's own.
  TempDir Dir("statsprune");
  net::CacheServerConfig Config = loopbackConfig(Dir);
  Config.MaxBytes = 100000000;
  net::CacheServer Server(Config);
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  ASSERT_TRUE(Client.put("fgbs-meas-0000000000000001.v1", "0123456789"));
  RemoteCacheStats Stats;
  ASSERT_TRUE(Client.statsRemote(Stats));
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_EQ(Stats.Bytes, 10u);
  ScanPrefixResult All = Client.scanPrefix("");
  ASSERT_TRUE(static_cast<bool>(All)) << All.Message;
  ASSERT_EQ(All.Entries.size(), 1u);
  EXPECT_EQ(All.Entries[0].Name, "fgbs-meas-0000000000000001.v1");
}

//===----------------------------------------------------------------------===//
// Degradation: a dead server never fails an operation
//===----------------------------------------------------------------------===//

TEST(Degradation, DeadServerDegradesWithCounters) {
  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  RemoteCacheBackend Client(deadServerConfig());
  std::string Bytes;
  EXPECT_FALSE(Client.exists("fgbs-meas-00000000000000d0.v1"));
  EXPECT_FALSE(Client.get("fgbs-meas-00000000000000d0.v1", Bytes));
  EXPECT_FALSE(Client.put("fgbs-meas-00000000000000d0.v1", "bytes"));
  EXPECT_TRUE(Client.scan("fgbs-meas-", ".v1").empty());
  EXPECT_GE(obs::counterTotal("db.cache.remote.errors"), 4u);
  obs::setEnabled(false);
}

//===----------------------------------------------------------------------===//
// Tiered semantics
//===----------------------------------------------------------------------===//

TEST(Tiered, RemoteHitPopulatesLocalTier) {
  TempDir Dir("readthrough");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  // Seed the server directly, as if another host published the entry.
  RemoteCacheBackend Seeder(clientConfig(Server));
  const std::string Name = "fgbs-meas-00000000000000e0.v1";
  ASSERT_TRUE(Seeder.put(Name, "fleet-shared bytes"));

  const std::string LocalDir = (Dir.Path / "local").string();
  TieredCacheBackend Tiered(
      std::make_unique<LocalDirBackend>(LocalDir),
      std::make_unique<RemoteCacheBackend>(clientConfig(Server)));

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  std::string Bytes;
  ASSERT_TRUE(Tiered.get(Name, Bytes));
  EXPECT_EQ(Bytes, "fleet-shared bytes");
  EXPECT_EQ(obs::counterTotal("db.cache.tier.remote_hits"), 1u);
  EXPECT_TRUE(fs::exists(fs::path(LocalDir) / Name))
      << "a remote hit must back-fill the local tier";

  // The second read is local.
  ASSERT_TRUE(Tiered.get(Name, Bytes));
  EXPECT_EQ(obs::counterTotal("db.cache.tier.local_hits"), 1u);
  obs::setEnabled(false);
}

TEST(Tiered, PutWritesThroughToRemote) {
  TempDir Dir("writeback");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  const std::string Name = "fgbs-meas-00000000000000e1.v1";
  TieredCacheBackend Tiered(
      std::make_unique<LocalDirBackend>((Dir.Path / "local").string()),
      std::make_unique<RemoteCacheBackend>(clientConfig(Server)));
  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  ASSERT_TRUE(Tiered.put(Name, "published locally"));
  EXPECT_EQ(obs::counterTotal("db.cache.tier.writebacks"), 1u);
  obs::setEnabled(false);

  // The put has reached the server by the time it returns.
  RemoteCacheBackend Checker(clientConfig(Server));
  std::string Bytes;
  ASSERT_TRUE(Checker.get(Name, Bytes));
  EXPECT_EQ(Bytes, "published locally");
}

// Every fresh-host load builds a tiered backend over a server that may
// be down: the local tier must keep serving reads and taking puts, and a
// replication that fails is counted, never a failed put.
TEST(Tiered, LocalTierServesWhileTheServerIsDown) {
  TempDir Dir("readonly");
  const std::string LocalDir = (Dir.Path / "local").string();
  const std::string Name = "fgbs-meas-00000000000000e2.v1";
  ASSERT_TRUE(LocalDirBackend(LocalDir).put(Name, "local bytes"));

  TieredCacheBackend Tiered(
      std::make_unique<LocalDirBackend>(LocalDir),
      std::make_unique<RemoteCacheBackend>(deadServerConfig()));
  std::string Bytes;
  ASSERT_TRUE(Tiered.get(Name, Bytes));
  EXPECT_EQ(Bytes, "local bytes");
  EXPECT_TRUE(Tiered.exists(Name));
  EXPECT_EQ(Tiered.scan("fgbs-meas-", ".v1").size(), 1u);

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  const std::string Fresh = "fgbs-meas-00000000000000e3.v1";
  ASSERT_TRUE(Tiered.put(Fresh, "kept locally"));
  EXPECT_EQ(obs::counterTotal("db.cache.tier.writeback_failures"), 1u);
  obs::setEnabled(false);
  ASSERT_TRUE(Tiered.get(Fresh, Bytes));
  EXPECT_EQ(Bytes, "kept locally");
}

TEST(Tiered, QueuedPutReachesServerAfterRemoveAndDestruction) {
  TempDir Dir("drain");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Checker(clientConfig(Server));
  const std::string Kept = "fgbs-meas-00000000000000e4.v1";
  const std::string Removed = "fgbs-meas-00000000000000e5.v1";
  const std::string Last = "fgbs-meas-00000000000000e6.v1";
  {
    TieredCacheBackend Tiered(
        std::make_unique<LocalDirBackend>((Dir.Path / "local").string()),
        std::make_unique<RemoteCacheBackend>(clientConfig(Server)));
    ASSERT_TRUE(Tiered.put(Kept, "kept"));
    ASSERT_TRUE(Tiered.put(Removed, "removed"));
    // remove() deletes from both tiers: the other entry stays published
    // and the removed one is gone from the server.
    EXPECT_TRUE(Tiered.remove(Removed));
    std::string Bytes;
    ASSERT_TRUE(Checker.get(Kept, Bytes));
    EXPECT_EQ(Bytes, "kept");
    EXPECT_FALSE(Checker.exists(Removed));

    // The last put before the backend goes away reaches the server too.
    ASSERT_TRUE(Tiered.put(Last, "last"));
  }
  std::string Bytes;
  ASSERT_TRUE(Checker.get(Last, Bytes));
  EXPECT_EQ(Bytes, "last");
  EXPECT_FALSE(Checker.exists(Removed));
}

//===----------------------------------------------------------------------===//
// End to end through buildMeasurementDatabase
//===----------------------------------------------------------------------===//

class RemoteBuildTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    TheSuite = new Suite(makeSyntheticSuite(tinyConfig()));
    Targets = {makeAtom()};
  }
  static void TearDownTestSuite() {
    delete TheSuite;
    TheSuite = nullptr;
  }
  static Suite *TheSuite;
  static std::vector<Machine> Targets;
};

Suite *RemoteBuildTest::TheSuite = nullptr;
std::vector<Machine> RemoteBuildTest::Targets;

TEST_F(RemoteBuildTest, SecondHostLoadsWithZeroSimulation) {
  TempDir Dir("e2e");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  const std::string Address = "127.0.0.1:" + std::to_string(Server.port());

  DatabaseBuildOptions HostA;
  HostA.Threads = 2;
  HostA.CacheDir = (Dir.Path / "hostA").string();
  HostA.CacheRemote = Address;

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  auto DbA = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                      HostA);
  ASSERT_NE(DbA, nullptr);
  EXPECT_GT(obs::counterTotal("sim.execute"), 0u);
  EXPECT_EQ(obs::counterTotal("db.cache.stores"), 1u);

  // "Host B": a different local directory, warm only through the
  // server.  The paper's simulation cost is paid exactly once.
  DatabaseBuildOptions HostB = HostA;
  HostB.CacheDir = (Dir.Path / "hostB").string();
  obs::MetricsRegistry::global().reset();
  auto DbB = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                      HostB);
  ASSERT_NE(DbB, nullptr);
  EXPECT_EQ(obs::counterTotal("sim.execute"), 0u)
      << "host B re-simulated despite the shared server";
  EXPECT_EQ(obs::counterTotal("db.cache.hits"), 1u);
  EXPECT_EQ(obs::counterTotal("db.cache.tier.remote_hits"), 1u);
  obs::setEnabled(false);

  // Byte-identical results, not merely equivalent ones.
  const std::uint64_t Key =
      measurementKey(*TheSuite, makeNehalem(), Targets, {});
  EXPECT_EQ(serializeMeasurements(*DbA, Key), serializeMeasurements(*DbB, Key));
}

TEST_F(RemoteBuildTest, RemoteOnlyCacheWorksWithoutLocalDir) {
  TempDir Dir("remoteonly");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;

  DatabaseBuildOptions Options;
  Options.Threads = 2;
  Options.CacheRemote = "127.0.0.1:" + std::to_string(Server.port());

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  auto First = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                        Options);
  ASSERT_NE(First, nullptr);
  EXPECT_GT(obs::counterTotal("sim.execute"), 0u);

  obs::MetricsRegistry::global().reset();
  auto Second = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                         Options);
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(obs::counterTotal("sim.execute"), 0u);
  EXPECT_EQ(obs::counterTotal("db.cache.hits"), 1u);
  obs::setEnabled(false);
}

TEST_F(RemoteBuildTest, DeadServerDegradesToLocalRun) {
  TempDir Dir("deadsrv");
  DatabaseBuildOptions Options;
  Options.Threads = 2;
  Options.CacheDir = (Dir.Path / "local").string();
  Options.CacheRemote = "127.0.0.1:1"; // Nothing listens here.

  obs::MetricsRegistry::global().reset();
  obs::setEnabled(true);
  auto Db = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                     Options);
  ASSERT_NE(Db, nullptr) << "a dead cache server must never fail a run";
  EXPECT_GT(obs::counterTotal("sim.execute"), 0u);
  EXPECT_GT(obs::counterTotal("db.cache.remote.errors"), 0u);
  // The local tier still works: a second run on the same directory is
  // a local hit even with the server still dead.
  obs::MetricsRegistry::global().reset();
  auto Again = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                        Options);
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(obs::counterTotal("sim.execute"), 0u);
  EXPECT_EQ(obs::counterTotal("db.cache.hits"), 1u);
  obs::setEnabled(false);
}

//===----------------------------------------------------------------------===//
// Satellite: crashed-writer temp files are invisible to scans
//===----------------------------------------------------------------------===//

TEST(TempFileHygiene, ScanSkipsFreshAndUnlinksStaleTempFiles) {
  TempDir Dir("tempfiles");
  LocalDirBackend Backend((Dir.Path / "cache").string());
  ASSERT_TRUE(Backend.put("fgbs-meas-00000000000000f0.v1", "real entry"));

  // A "crashed writer" leftover matching the scan filters by name.  One
  // fresh (a live writer may be about to rename it) and one stale.
  const fs::path Fresh =
      fs::path(Backend.dir()) / "fgbs-meas-00000000000000f1.v1.tmp.999.0";
  const fs::path Stale =
      fs::path(Backend.dir()) / "fgbs-meas-00000000000000f2.v1.tmp.999.1";
  { std::ofstream(Fresh.string()) << "partial"; }
  { std::ofstream(Stale.string()) << "partial"; }
  fs::last_write_time(Stale, fs::file_time_type::clock::now() -
                                 std::chrono::seconds(2 * 3600));

  std::vector<CacheEntry> Entries = Backend.scan("fgbs-meas-", "");
  ASSERT_EQ(Entries.size(), 1u) << "temp files leaked into the scan";
  EXPECT_EQ(Entries[0].Name, "fgbs-meas-00000000000000f0.v1");

  EXPECT_TRUE(fs::exists(Fresh)) << "a fresh temp file must be left alone";
  EXPECT_FALSE(fs::exists(Stale)) << "a stale temp file must be swept";
}

TEST(TempFileHygiene, PruneIgnoresTempFiles) {
  TempDir Dir("tempprune");
  LocalDirBackend Local((Dir.Path / "cache").string());
  ASSERT_TRUE(Local.put("fgbs-meas-00000000000000f3.v1", "entry"));
  const fs::path Temp =
      fs::path(Local.dir()) / "fgbs-meas-00000000000000f4.v1.tmp.12.7";
  { std::ofstream(Temp.string()) << "partial write"; }

  // An unbounded prune's candidates come from a scan, which must not
  // adopt the temp file as an entry.
  CachePruneStats Stats = pruneMeasurementEntries(Local, 0, 0);
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_EQ(Stats.Removed, 0u);
}

//===----------------------------------------------------------------------===//
// fgbs.cachestats.v1: the machine-readable stats surface
//===----------------------------------------------------------------------===//

TEST(StatsJson, SchemaCoversBothNamespaces) {
  TempDir Dir("stats_json");
  net::CacheServer Server(loopbackConfig(Dir));
  std::string Error;
  ASSERT_TRUE(Server.start(&Error)) << Error;
  RemoteCacheBackend Client(clientConfig(Server));

  // Populate both namespaces and tick the scan counter so every JSON
  // field below is exercised with a non-trivial value.
  ASSERT_TRUE(Client.put("fgbs-meas-00000000000000f0.v1", "meas bytes"));
  const std::string Sha = "model/stats-model/sha/" + std::string(64, 'f');
  ASSERT_TRUE(Client.put(Sha, "model bytes"));
  ASSERT_TRUE(Client.put("model/stats-model/ref/latest", "ref bytes"));
  ASSERT_TRUE(static_cast<bool>(Client.scanPrefix("model/")));

  RemoteCacheStats Stats;
  ASSERT_TRUE(Client.statsRemote(Stats));
  // ModelPuts counts every model-namespace store; ModelRefPuts is the
  // ref-only sub-count.
  EXPECT_EQ(Stats.ModelPuts, 2u);
  EXPECT_EQ(Stats.ModelRefPuts, 1u);
  EXPECT_EQ(Stats.ScanPrefixes, 1u);

  const std::string Json = renderStatsJson(Stats);
  std::optional<obs::JsonValue> Doc = obs::parseJson(Json);
  ASSERT_TRUE(Doc.has_value()) << "stats JSON must parse:\n" << Json;

  const obs::JsonValue *Schema = Doc->find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->string(), "fgbs.cachestats.v1");

  const obs::JsonValue *Meas = Doc->find("meas");
  ASSERT_NE(Meas, nullptr);
  for (const char *Key : {"entries", "bytes", "hits", "misses"})
    EXPECT_NE(Meas->find(Key), nullptr) << "meas." << Key;
  EXPECT_EQ(Meas->find("entries")->number(), 1.0);
  EXPECT_EQ(Meas->find("bytes")->number(), 10.0);
  EXPECT_EQ(Meas->find("shards"), nullptr);

  // The server has no work queue, so the document has no farm block.
  EXPECT_EQ(Doc->find("farm"), nullptr);

  const obs::JsonValue *Model = Doc->find("model");
  ASSERT_NE(Model, nullptr);
  ASSERT_FALSE(Model->isNull());
  for (const char *Key :
       {"entries", "bytes", "gets", "puts", "ref_puts", "scan_prefixes"})
    EXPECT_NE(Model->find(Key), nullptr) << "model." << Key;
  EXPECT_EQ(Model->find("entries")->number(), 2.0) << "sha blob + ref";
  EXPECT_EQ(Model->find("bytes")->number(), 20.0);
  EXPECT_EQ(Model->find("shards"), nullptr);
  EXPECT_EQ(Model->find("puts")->number(), 2.0);
  EXPECT_EQ(Model->find("ref_puts")->number(), 1.0);
  EXPECT_EQ(Model->find("scan_prefixes")->number(), 1.0);

  Server.stop();
}

TEST(StatsJson, ReplyWithoutTheModelBlockIsRejected) {
  // Every server sends the model block, so a reply that ends after the
  // measurement counters is damaged, not a server with no models.
  net::Listener L;
  std::string Error;
  ASSERT_TRUE(L.listenOn("127.0.0.1", 0, 4, &Error)) << Error;
  std::thread Cut([&L] {
    net::Socket Conn = L.acceptOnce(5000);
    net::Frame Request;
    if (!Conn.valid() ||
        net::readFrame(Conn, Request, 5000) != net::WireError::None)
      return;
    std::string Reply;
    binio::putU64(Reply, 7);    // entries
    binio::putU64(Reply, 4096); // bytes
    binio::putU64(Reply, 3);    // hits
    binio::putU64(Reply, 0);    // misses, and nothing after
    net::writeFrame(Conn, net::Opcode::Ok, Reply, 5000);
  });
  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = L.port();
  Config.MaxAttempts = 1;
  RemoteCacheBackend Client(Config);
  RemoteCacheStats Stats;
  EXPECT_FALSE(Client.statsRemote(Stats));
  Cut.join();
}

} // namespace
