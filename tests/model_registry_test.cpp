//===- tests/model_registry_test.cpp - model distribution contract --------===//
//
// The model registry under production and failure conditions: SHA-256
// against published vectors, ref/URI parsing and damage, publish/pull
// round trips through an in-memory registry, hash-mismatched payloads
// (remote AND local tampering) never reaching a caller, dead-registry
// degradation to the memoized local copy, dangling refs as typed
// errors, concurrent publishers racing a ref without tearing it, and a
// server that refuses scan-by-prefix yielding a typed Failed.
//
//===----------------------------------------------------------------------===//

#include "cache_backend_conformance.h"

#include "fgbs/core/ModelRegistry.h"
#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/net/CacheServer.h"
#include "fgbs/net/Framing.h"
#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Sha256.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace fgbs;
using conformance::InMemoryBackend;

// The conformance header is included for its InMemoryBackend and
// binaryBlob helpers; the typed battery itself is instantiated in
// cache_backend_conformance_test.cpp.
namespace fgbs {
namespace conformance {
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(CacheBackendConformance);
} // namespace conformance
} // namespace fgbs

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// SHA-256 vectors (FIPS 180-4 / NIST examples)
//===----------------------------------------------------------------------===//

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(
      sha256Hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256Hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One million 'a's — exercises the streaming block path.
  EXPECT_EQ(
      sha256Hex(std::string(1000000, 'a')),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  // Updates split at awkward boundaries must agree with the one-shot
  // digest (the block buffer logic is where streaming hashes go wrong).
  std::string Input;
  for (int I = 0; I < 500; ++I)
    Input += "block boundary torture " + std::to_string(I) + "\n";
  Sha256 H;
  std::size_t Off = 0, Chunk = 1;
  while (Off < Input.size()) {
    const std::size_t N = std::min(Chunk, Input.size() - Off);
    H.update(std::string_view(Input).substr(Off, N));
    Off += N;
    Chunk = Chunk * 3 + 1; // 1, 4, 13, 40, ... crosses 64 both ways
  }
  EXPECT_EQ(H.digest(), sha256(Input));
}

TEST(Sha256, HexValidation) {
  EXPECT_TRUE(isSha256Hex(std::string(64, 'a')));
  EXPECT_TRUE(isSha256Hex(
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"));
  EXPECT_FALSE(isSha256Hex(std::string(63, 'a')));
  EXPECT_FALSE(isSha256Hex(std::string(65, 'a')));
  EXPECT_FALSE(isSha256Hex(std::string(64, 'A'))) << "one canonical case";
  EXPECT_FALSE(isSha256Hex(std::string(64, 'g')));
  EXPECT_FALSE(isSha256Hex(""));
}

//===----------------------------------------------------------------------===//
// fgbs.ref.v1 blobs
//===----------------------------------------------------------------------===//

TEST(ModelRef, RoundTrips) {
  ModelRef In;
  In.Sha256Hex = sha256Hex("some snapshot");
  In.SnapshotBytes = 12345;
  In.PublishedUnixSeconds = 1700000000;
  const std::string Blob = serializeModelRef(In);
  ModelRef Out;
  std::string Error;
  ASSERT_TRUE(parseModelRef(Blob, Out, &Error)) << Error;
  EXPECT_EQ(Out.Sha256Hex, In.Sha256Hex);
  EXPECT_EQ(Out.SnapshotBytes, In.SnapshotBytes);
  EXPECT_EQ(Out.PublishedUnixSeconds, In.PublishedUnixSeconds);
}

TEST(ModelRef, DamageIsTyped) {
  ModelRef In;
  In.Sha256Hex = sha256Hex("x");
  In.SnapshotBytes = 1;
  In.PublishedUnixSeconds = 2;
  const std::string Clean = serializeModelRef(In);
  ModelRef Out;
  std::string Error;

  EXPECT_FALSE(parseModelRef("", Out, &Error));
  EXPECT_FALSE(parseModelRef(Clean.substr(0, 10), Out, &Error));
  EXPECT_FALSE(parseModelRef(Clean.substr(0, Clean.size() - 1), Out, &Error));

  std::string BadMagic = Clean;
  BadMagic[0] ^= 0x20;
  EXPECT_FALSE(parseModelRef(BadMagic, Out, &Error));
  EXPECT_NE(Error.find("not an fgbs.ref.v1"), std::string::npos);

  std::string BadVersion = Clean;
  BadVersion[8] = 9;
  EXPECT_FALSE(parseModelRef(BadVersion, Out, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos);

  std::string BadPayload = Clean;
  BadPayload.back() = static_cast<char>(BadPayload.back() ^ 0xFF);
  EXPECT_FALSE(parseModelRef(BadPayload, Out, &Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos);

  EXPECT_FALSE(parseModelRef(Clean + "trailing", Out, &Error));
}

std::string hexOf(std::string_view Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Hex;
  for (char C : Bytes) {
    const auto U = static_cast<unsigned char>(C);
    Hex += Digits[U >> 4];
    Hex += Digits[U & 15];
  }
  return Hex;
}

TEST(ModelRef, GoldenBytes) {
  // Every byte of one fixed ref: header (magic, version 1.0, payload
  // size 84, CRC-32) and payload (hash, snapshot size, publish time).
  ModelRef In;
  In.Sha256Hex = sha256Hex("abc");
  In.SnapshotBytes = 5562;
  In.PublishedUnixSeconds = 1700000000;
  const std::string Golden =
      "464742535245463101000000000000005400000000000000d60022c440000000"
      "6261373831366266386630316366656134313431343064653564616532323233"
      "6230303336316133393631373761396362343130666636316632303031356164"
      "ba1500000000000000f1536500000000";
  const std::string Blob = serializeModelRef(In);
  EXPECT_EQ(Blob.size(), 112u);
  EXPECT_EQ(hexOf(Blob), Golden);

  ModelRef Out;
  std::string Error;
  ASSERT_TRUE(parseModelRef(Blob, Out, &Error)) << Error;
  EXPECT_EQ(Out.Sha256Hex, In.Sha256Hex);
  EXPECT_EQ(Out.SnapshotBytes, 5562u);
  EXPECT_EQ(Out.PublishedUnixSeconds, 1700000000u);
}

//===----------------------------------------------------------------------===//
// fgbs:// URIs
//===----------------------------------------------------------------------===//

TEST(ModelUriParse, AcceptedForms) {
  ModelUri U;
  std::string Error;
  ASSERT_TRUE(parseModelUri("fgbs://cachehost:9321/npb-ref", U, &Error))
      << Error;
  EXPECT_EQ(U.Host, "cachehost");
  EXPECT_EQ(U.Port, 9321);
  EXPECT_EQ(U.Name, "npb-ref");
  EXPECT_EQ(U.Tag, "latest") << "an unadorned URI means @latest";
  EXPECT_TRUE(U.Sha256Hex.empty());

  ASSERT_TRUE(parseModelUri("fgbs://10.0.0.5:80/suite.v2@release-1",
                            U, &Error))
      << Error;
  EXPECT_EQ(U.Tag, "release-1");
  EXPECT_TRUE(U.Sha256Hex.empty());

  const std::string Hex = sha256Hex("pinned");
  ASSERT_TRUE(parseModelUri("fgbs://h:1/m@sha256:" + Hex, U, &Error))
      << Error;
  EXPECT_TRUE(U.Tag.empty());
  EXPECT_EQ(U.Sha256Hex, Hex);
}

TEST(ModelUriParse, RejectedForms) {
  ModelUri U;
  std::string Error;
  EXPECT_FALSE(parseModelUri("http://h:1/m", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://hostonly/m", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://h:0/m", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://h:99999/m", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://h:12x/m", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://h:1/", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://h:1/bad name", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://h:1/a/b", U, &Error))
      << "model names are single segments";
  EXPECT_FALSE(parseModelUri("fgbs://h:1/m@", U, &Error));
  EXPECT_FALSE(parseModelUri("fgbs://h:1/m@sha256:short", U, &Error));
  EXPECT_FALSE(
      parseModelUri("fgbs://h:1/m@sha256:" + std::string(64, 'G'), U, &Error))
      << "hashes are lowercase hex only";
}

TEST(ModelNames, Validation) {
  EXPECT_TRUE(isValidModelName("npb-ref"));
  EXPECT_TRUE(isValidModelName("suite.v2_final"));
  EXPECT_FALSE(isValidModelName(""));
  EXPECT_FALSE(isValidModelName("."));
  EXPECT_FALSE(isValidModelName(".."));
  EXPECT_FALSE(isValidModelName("a/b"));
  EXPECT_FALSE(isValidModelName("a b"));
  EXPECT_FALSE(isValidModelName(std::string(101, 'a')));
  EXPECT_TRUE(isValidModelTag("latest"));
  EXPECT_FALSE(isValidModelTag("v1/rc"));
}

//===----------------------------------------------------------------------===//
// Registry behaviour against a controllable in-memory backend
//===----------------------------------------------------------------------===//

/// Shared fault-injection state: the "registry" several ModelRegistry
/// instances talk to, plus a kill switch and call counters.
struct FakeRegistry {
  InMemoryBackend Store;
  std::atomic<bool> Dead{false};
  std::atomic<int> Gets{0};
};

/// A CacheBackend view over a FakeRegistry: delegates while alive,
/// fails every call (and reports unhealthy) once Dead — the in-process
/// stand-in for a crashed fgbs_cached.
class FaultInjectingBackend final : public CacheBackend {
public:
  explicit FaultInjectingBackend(std::shared_ptr<FakeRegistry> R)
      : R(std::move(R)) {}

  bool exists(const std::string &Name) const override {
    return !R->Dead && R->Store.exists(Name);
  }
  bool get(const std::string &Name, std::string &BytesOut) const override {
    R->Gets.fetch_add(1);
    return !R->Dead && R->Store.get(Name, BytesOut);
  }
  bool put(const std::string &Name, std::string_view Bytes) override {
    return !R->Dead && R->Store.put(Name, Bytes);
  }
  bool remove(const std::string &Name) override {
    return !R->Dead && R->Store.remove(Name);
  }
  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override {
    return R->Dead ? std::vector<CacheEntry>{} : R->Store.scan(Prefix, Suffix);
  }
  ScanPrefixResult scanPrefix(const std::string &Prefix) const override {
    if (R->Dead) {
      ScanPrefixResult Out;
      Out.Outcome = ScanPrefixOutcome::Failed;
      Out.Message = "registry down";
      return Out;
    }
    return R->Store.scanPrefix(Prefix);
  }
  bool healthy() const override { return !R->Dead; }
  std::string lockPath(const std::string &) const override { return {}; }

private:
  std::shared_ptr<FakeRegistry> R;
};

struct RegistryTest : ::testing::Test {
  void SetUp() override {
    Fake = std::make_shared<FakeRegistry>();
    static std::atomic<unsigned> Serial{0};
    Dir = fs::temp_directory_path() /
          ("fgbs_registry_" + std::to_string(static_cast<long>(::getpid())) +
           "_" + std::to_string(Serial.fetch_add(1)));
    fs::remove_all(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }

  /// A registry client with its own local cache subdirectory, talking
  /// to the shared fake (one per simulated host).
  std::unique_ptr<ModelRegistry> client(const std::string &Host) {
    return std::make_unique<ModelRegistry>(
        std::make_unique<FaultInjectingBackend>(Fake),
        (Dir / Host).string());
  }

  std::shared_ptr<FakeRegistry> Fake;
  fs::path Dir;
};

TEST_F(RegistryTest, PublishThenPullRoundTrips) {
  const std::string Snapshot = conformance::binaryBlob(4096);
  ASSERT_NE(Snapshot.find('\0'), std::string::npos);
  auto Publisher = client("publisher");
  PublishResult Pub = Publisher->publish("npb-ref", "latest", Snapshot);
  ASSERT_TRUE(static_cast<bool>(Pub)) << Pub.Message;
  EXPECT_EQ(Pub.Sha256Hex, sha256Hex(Snapshot));
  EXPECT_FALSE(Pub.SnapshotAlreadyPresent);

  // The registry holds both blobs under the documented keys.
  EXPECT_TRUE(Fake->Store.exists(modelShaKey("npb-ref", Pub.Sha256Hex)));
  EXPECT_TRUE(Fake->Store.exists(modelRefKey("npb-ref", "latest")));

  // A different host pulls by tag: payload crosses the network once.
  auto Consumer = client("consumer");
  PullResult Pull = Consumer->pull("npb-ref", "latest");
  ASSERT_TRUE(static_cast<bool>(Pull)) << Pull.Message;
  EXPECT_EQ(Pull.Bytes, Snapshot);
  EXPECT_EQ(Pull.Sha256Hex, Pub.Sha256Hex);
  EXPECT_TRUE(Pull.FetchedFromRemote);
  EXPECT_FALSE(Pull.Degraded);

  // Warm pull: ref check only, payload from the local cache dir.
  PullResult Warm = Consumer->pull("npb-ref", "latest");
  ASSERT_TRUE(static_cast<bool>(Warm)) << Warm.Message;
  EXPECT_EQ(Warm.Bytes, Snapshot);
  EXPECT_FALSE(Warm.FetchedFromRemote);
}

TEST_F(RegistryTest, RepublishIsIdempotentAndMovesTheTag) {
  auto R = client("pub");
  PublishResult First = R->publish("m", "latest", "version one");
  ASSERT_TRUE(static_cast<bool>(First)) << First.Message;
  PublishResult Again = R->publish("m", "latest", "version one");
  ASSERT_TRUE(static_cast<bool>(Again)) << Again.Message;
  EXPECT_TRUE(Again.SnapshotAlreadyPresent);
  EXPECT_EQ(Again.Sha256Hex, First.Sha256Hex);

  PublishResult Second = R->publish("m", "latest", "version two");
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.Message;
  EXPECT_NE(Second.Sha256Hex, First.Sha256Hex);

  // The tag follows the newest publish; the old blob stays addressable.
  auto C = client("con");
  PullResult Latest = C->pull("m", "latest");
  ASSERT_TRUE(static_cast<bool>(Latest)) << Latest.Message;
  EXPECT_EQ(Latest.Bytes, "version two");
  PullResult Pinned = C->pullByHash("m", First.Sha256Hex);
  ASSERT_TRUE(static_cast<bool>(Pinned)) << Pinned.Message;
  EXPECT_EQ(Pinned.Bytes, "version one");
}

TEST_F(RegistryTest, WarmPullRewritesNoUnchangedRef) {
  auto Publisher = client("pub");
  ASSERT_TRUE(static_cast<bool>(Publisher->publish("m", "latest", "one")));
  auto C = client("con");
  ASSERT_TRUE(static_cast<bool>(C->pull("m", "latest")));
  const fs::path RefFile =
      Dir / "con" /
      LocalDirBackend::encodeFileName(modelRefKey("m", "latest"));
  auto Inode = [&RefFile] {
    struct stat St{};
    EXPECT_EQ(::stat(RefFile.c_str(), &St), 0) << RefFile;
    return St.st_ino;
  };
  const ino_t Memoized = Inode();

  // A warm pull resolves the same ref and leaves the memo's file alone.
  ASSERT_TRUE(static_cast<bool>(C->pull("m", "latest")));
  EXPECT_EQ(Inode(), Memoized) << "a warm pull rewrote an unchanged ref";

  // After a re-publish the pull moves the memo's ref, so a degraded
  // pull serves the new tag.
  PublishResult Second = Publisher->publish("m", "latest", "two");
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.Message;
  ASSERT_TRUE(static_cast<bool>(C->pull("m", "latest")));
  Fake->Dead = true;
  PullResult Degraded = C->pull("m", "latest");
  ASSERT_TRUE(static_cast<bool>(Degraded)) << Degraded.Message;
  EXPECT_TRUE(Degraded.Degraded);
  EXPECT_EQ(Degraded.Sha256Hex, Second.Sha256Hex);
  EXPECT_EQ(Degraded.Bytes, "two");
}

TEST_F(RegistryTest, WarmPullByHashTouchesNoNetwork) {
  auto R = client("host");
  PublishResult Pub = R->publish("m", "latest", "snapshot bytes");
  ASSERT_TRUE(static_cast<bool>(Pub)) << Pub.Message;
  const int GetsBefore = Fake->Gets.load();
  // publish() memoized locally, so even the first by-hash pull on the
  // publishing host is satisfied without a remote get.
  PullResult Pull = R->pullByHash("m", Pub.Sha256Hex);
  ASSERT_TRUE(static_cast<bool>(Pull)) << Pull.Message;
  EXPECT_EQ(Pull.Bytes, "snapshot bytes");
  EXPECT_FALSE(Pull.FetchedFromRemote);
  EXPECT_EQ(Fake->Gets.load(), GetsBefore)
      << "a warm by-hash pull must not touch the registry";
}

TEST_F(RegistryTest, UnknownTagOnHealthyRegistryIsRefNotFound) {
  auto R = client("host");
  PullResult Pull = R->pull("m", "no-such-tag");
  EXPECT_EQ(Pull.Error, RegistryError::RefNotFound);
  EXPECT_TRUE(Pull.Bytes.empty());
}

TEST_F(RegistryTest, DanglingRefIsTyped) {
  auto R = client("host");
  PublishResult Pub = R->publish("m", "latest", "soon to vanish");
  ASSERT_TRUE(static_cast<bool>(Pub)) << Pub.Message;
  // The blob disappears (over-aggressive prune, partial publish) but
  // the ref stays — refs are never budget-pruned, so this condition is
  // reportable rather than silent.
  ASSERT_TRUE(Fake->Store.remove(modelShaKey("m", Pub.Sha256Hex)));
  auto Fresh = client("other-host");
  PullResult Pull = Fresh->pull("m", "latest");
  EXPECT_EQ(Pull.Error, RegistryError::DanglingRef) << Pull.Message;
  EXPECT_TRUE(Pull.Bytes.empty());
}

TEST_F(RegistryTest, TamperedRemotePayloadNeverLoads) {
  auto R = client("pub");
  PublishResult Pub = R->publish("m", "latest", "authentic bytes");
  ASSERT_TRUE(static_cast<bool>(Pub)) << Pub.Message;
  // An attacker (or bitrot) replaces the blob behind the hash key.
  ASSERT_TRUE(
      Fake->Store.put(modelShaKey("m", Pub.Sha256Hex), "tampered bytes"));
  auto Victim = client("victim");
  PullResult Pull = Victim->pull("m", "latest");
  EXPECT_EQ(Pull.Error, RegistryError::HashMismatch) << Pull.Message;
  EXPECT_TRUE(Pull.Bytes.empty())
      << "a mismatched payload must never reach the caller";
  PullResult ByHash = Victim->pullByHash("m", Pub.Sha256Hex);
  EXPECT_EQ(ByHash.Error, RegistryError::HashMismatch);
  EXPECT_TRUE(ByHash.Bytes.empty());
}

TEST_F(RegistryTest, TamperedLocalCacheIsDetectedAndRefetched) {
  auto R = client("host");
  PublishResult Pub = R->publish("m", "latest", "authentic bytes");
  ASSERT_TRUE(static_cast<bool>(Pub)) << Pub.Message;
  // Corrupt the memoized local copy through a backend over the memo.
  LocalDirBackend Memo((Dir / "host").string());
  ASSERT_TRUE(Memo.put(modelShaKey("m", Pub.Sha256Hex), "rotted local copy"));
  // The next pull must detect the rot (verify on EVERY load), discard
  // the file, and re-fetch the authentic bytes from the registry.
  PullResult Pull = R->pullByHash("m", Pub.Sha256Hex);
  ASSERT_TRUE(static_cast<bool>(Pull)) << Pull.Message;
  EXPECT_EQ(Pull.Bytes, "authentic bytes");
  EXPECT_TRUE(Pull.FetchedFromRemote);
  // And the local copy is healthy again.
  PullResult Warm = R->pullByHash("m", Pub.Sha256Hex);
  ASSERT_TRUE(static_cast<bool>(Warm)) << Warm.Message;
  EXPECT_FALSE(Warm.FetchedFromRemote);
}

TEST_F(RegistryTest, DeadRegistryDegradesToLocalCopy) {
  auto R = client("host");
  PublishResult Pub = R->publish("m", "latest", "survives the outage");
  ASSERT_TRUE(static_cast<bool>(Pub)) << Pub.Message;
  Fake->Dead = true;

  PullResult Tagged = R->pull("m", "latest");
  ASSERT_TRUE(static_cast<bool>(Tagged)) << Tagged.Message;
  EXPECT_TRUE(Tagged.Degraded);
  EXPECT_EQ(Tagged.Bytes, "survives the outage");

  PullResult ByHash = R->pullByHash("m", Pub.Sha256Hex);
  ASSERT_TRUE(static_cast<bool>(ByHash)) << ByHash.Message;
  EXPECT_EQ(ByHash.Bytes, "survives the outage");

  // A host that never pulled has nothing to degrade to.
  auto Cold = client("cold-host");
  PullResult Miss = Cold->pull("m", "latest");
  EXPECT_EQ(Miss.Error, RegistryError::Unreachable) << Miss.Message;
  PullResult MissHash = Cold->pullByHash("m", Pub.Sha256Hex);
  EXPECT_EQ(MissHash.Error, RegistryError::Unreachable) << MissHash.Message;
}

TEST_F(RegistryTest, ListEnumeratesPublishedBlobs) {
  auto R = client("host");
  ASSERT_TRUE(static_cast<bool>(R->publish("alpha", "latest", "a")));
  ASSERT_TRUE(static_cast<bool>(R->publish("beta", "latest", "b")));
  ScanPrefixResult One = R->list("alpha");
  ASSERT_TRUE(static_cast<bool>(One)) << One.Message;
  EXPECT_EQ(One.Entries.size(), 2u) << "one sha blob + one ref";
  ScanPrefixResult All = R->list("");
  ASSERT_TRUE(static_cast<bool>(All)) << All.Message;
  EXPECT_EQ(All.Entries.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Against a live fgbs_cached: the ref race and end-to-end wire pulls
//===----------------------------------------------------------------------===//

struct LiveRegistryTest : ::testing::Test {
  void SetUp() override {
    static std::atomic<unsigned> Serial{0};
    Dir = fs::temp_directory_path() /
          ("fgbs_registry_live_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(Serial.fetch_add(1)));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    net::CacheServerConfig Config;
    Config.Root = (Dir / "server").string();
    Config.Threads = 4;
    Config.BindAddr = "127.0.0.1";
    Server = std::make_unique<net::CacheServer>(std::move(Config));
    std::string Error;
    ASSERT_TRUE(Server->start(&Error)) << Error;
  }
  void TearDown() override {
    if (Server)
      Server->stop();
    fs::remove_all(Dir);
  }

  std::unique_ptr<ModelRegistry> client(const std::string &Host) {
    RemoteCacheConfig Config;
    Config.Host = "127.0.0.1";
    Config.Port = Server->port();
    return std::make_unique<ModelRegistry>(
        std::make_unique<RemoteCacheBackend>(std::move(Config)),
        (Dir / Host).string());
  }

  fs::path Dir;
  std::unique_ptr<net::CacheServer> Server;
};

TEST_F(LiveRegistryTest, WirePublishPullRoundTrip) {
  const std::string Snapshot = conformance::binaryBlob(200000);
  auto Pub = client("pub");
  PublishResult P = Pub->publish("wire-model", "latest", Snapshot);
  ASSERT_TRUE(static_cast<bool>(P)) << P.Message;
  auto Con = client("con");
  PullResult Pull = Con->pull("wire-model", "latest");
  ASSERT_TRUE(static_cast<bool>(Pull)) << Pull.Message;
  EXPECT_EQ(Pull.Bytes, Snapshot);
  EXPECT_TRUE(Pull.FetchedFromRemote);
  PullResult Warm = Con->pull("wire-model", "latest");
  ASSERT_TRUE(static_cast<bool>(Warm)) << Warm.Message;
  EXPECT_FALSE(Warm.FetchedFromRemote);
}

TEST_F(LiveRegistryTest, RacingPublishersNeverTearTheRef) {
  // Two publishers hammer the same tag with different payloads.  Each
  // ref is written whole by one atomic put on the server, so every
  // observation — including the final state — must be a fully valid
  // ref naming a fully present snapshot.
  const std::string BytesA = "payload from publisher A";
  const std::string BytesB = "payload from publisher B, different size";
  const std::string HexA = sha256Hex(BytesA);
  const std::string HexB = sha256Hex(BytesB);
  std::atomic<int> Failures{0};
  auto hammer = [&](const std::string &Host, const std::string &Bytes) {
    auto R = client(Host);
    for (int I = 0; I < 8; ++I) {
      PublishResult P = R->publish("contended", "latest", Bytes);
      if (!P)
        Failures.fetch_add(1);
    }
  };
  std::thread A(hammer, "host-a", BytesA);
  std::thread B(hammer, "host-b", BytesB);
  A.join();
  B.join();
  EXPECT_EQ(Failures.load(), 0) << "every racing publish must succeed";

  // The final ref is wholly one of the two, never a splice.
  auto Reader = client("reader");
  std::string RefBytes;
  ASSERT_TRUE(
      Reader->remote().get(modelRefKey("contended", "latest"), RefBytes));
  ModelRef Ref;
  std::string Error;
  ASSERT_TRUE(parseModelRef(RefBytes, Ref, &Error)) << Error;
  EXPECT_TRUE(Ref.Sha256Hex == HexA || Ref.Sha256Hex == HexB);

  // And a pull through it serves exactly the winner's bytes.
  PullResult Pull = Reader->pull("contended", "latest");
  ASSERT_TRUE(static_cast<bool>(Pull)) << Pull.Message;
  EXPECT_EQ(Pull.Bytes, Ref.Sha256Hex == HexA ? BytesA : BytesB);
  // Both blobs stayed addressable regardless of who won the tag.
  EXPECT_TRUE(static_cast<bool>(Reader->pullByHash("contended", HexA)));
  EXPECT_TRUE(static_cast<bool>(Reader->pullByHash("contended", HexB)));
}

//===----------------------------------------------------------------------===//
// A refused scan-by-prefix must come back as a typed Failed, not an
// empty "authoritative" listing
//===----------------------------------------------------------------------===//

TEST(ScanPrefixCompat, RefusedScanIsFailedNotAnEmptyListing) {
  // A minimal fgbs.cachewire.v1 speaker that refuses everything but
  // Ping with a typed Error frame naming the opcode, the way a server
  // answers an opcode it does not serve.
  net::Listener L;
  std::string Error;
  ASSERT_TRUE(L.listenOn("127.0.0.1", 0, 4, &Error)) << Error;
  std::atomic<bool> Stop{false};
  std::thread OldServer([&L, &Stop] {
    while (!Stop.load()) {
      net::Socket Conn = L.acceptOnce(100);
      if (!Conn.valid())
        continue;
      for (;;) {
        net::Frame Request;
        if (net::readFrame(Conn, Request, 2000) != net::WireError::None)
          break;
        std::string Payload;
        if (Request.Op == net::Opcode::Ping) {
          net::writeFrame(Conn, net::Opcode::Ok, "", 2000);
          continue;
        }
        binio::putStr(Payload, "unsupported opcode " +
                                   std::to_string(static_cast<unsigned>(
                                       Request.Op)));
        if (!net::writeFrame(Conn, net::Opcode::Error, Payload, 2000))
          break;
      }
    }
  });

  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = L.port();
  Config.MaxAttempts = 1;
  // The fake serves one connection at a time, so each client is closed
  // (by leaving its scope) before the next one connects and before the
  // fake stops; otherwise the fake waits out its read deadline on the
  // client's idle pooled connection.
  {
    RemoteCacheBackend Client(Config);
    ScanPrefixResult R = Client.scanPrefix("model/");
    EXPECT_EQ(R.Outcome, ScanPrefixOutcome::Failed) << R.Message;
    EXPECT_NE(R.Message.find("unsupported opcode"), std::string::npos)
        << R.Message;
    EXPECT_TRUE(R.Entries.empty());
  }

  // And ModelRegistry::list surfaces the same typed outcome.
  {
    ModelRegistry Registry(std::make_unique<RemoteCacheBackend>(Config), "");
    ScanPrefixResult Via = Registry.list("");
    EXPECT_EQ(Via.Outcome, ScanPrefixOutcome::Failed);
  }

  Stop = true;
  OldServer.join();
}

} // namespace
