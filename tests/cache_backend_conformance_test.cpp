//===- tests/cache_backend_conformance_test.cpp - all backends ------------===//
//
// Instantiates the CacheBackend conformance battery against every
// implementation in the tree: the local directory, the in-memory
// reference, the wire-protocol client over a loopback fgbs_cached
// server, and the tiered local+remote composition.
//
//===----------------------------------------------------------------------===//

#include "cache_backend_conformance.h"

#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/core/TieredCacheBackend.h"
#include "fgbs/net/CacheServer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

using namespace fgbs;
using namespace fgbs::conformance;

namespace {

/// A scratch directory unique to this process and harness instance.
struct TempDir {
  std::filesystem::path Path;
  explicit TempDir(const std::string &Tag) {
    static std::atomic<unsigned> Serial{0};
    Path = std::filesystem::temp_directory_path() /
           ("fgbs_conformance_" + Tag + "_" +
            std::to_string(static_cast<long>(::getpid())) + "_" +
            std::to_string(Serial.fetch_add(1)));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
};

struct LocalDirHarness {
  TempDir Dir{"local"};
  LocalDirBackend Backend{(Dir.Path / "cache").string()};
  CacheBackend &backend() { return Backend; }
};

struct InMemoryHarness {
  InMemoryBackend Backend;
  CacheBackend &backend() { return Backend; }
};

/// A loopback fgbs_cached instance plus a client pointed at it.
struct RemoteHarness {
  TempDir Dir{"remote"};
  net::CacheServer Server{[this] {
    net::CacheServerConfig Config;
    Config.Root = (Dir.Path / "server").string();
    Config.Threads = 2;
    Config.BindAddr = "127.0.0.1";
    return Config;
  }()};
  std::unique_ptr<RemoteCacheBackend> Client;

  RemoteHarness() {
    std::string Error;
    if (!Server.start(&Error))
      ADD_FAILURE() << "cannot start loopback cache server: " << Error;
    RemoteCacheConfig Config;
    Config.Host = "127.0.0.1";
    Config.Port = Server.port();
    Client = std::make_unique<RemoteCacheBackend>(std::move(Config));
  }

  CacheBackend &backend() { return *Client; }
};

struct TieredHarness {
  TempDir Dir{"tiered"};
  net::CacheServer Server{[this] {
    net::CacheServerConfig Config;
    Config.Root = (Dir.Path / "server").string();
    Config.Threads = 2;
    Config.BindAddr = "127.0.0.1";
    return Config;
  }()};
  std::unique_ptr<TieredCacheBackend> Tiered;

  TieredHarness() {
    std::string Error;
    if (!Server.start(&Error))
      ADD_FAILURE() << "cannot start loopback cache server: " << Error;
    RemoteCacheConfig Config;
    Config.Host = "127.0.0.1";
    Config.Port = Server.port();
    Tiered = std::make_unique<TieredCacheBackend>(
        std::make_unique<LocalDirBackend>((Dir.Path / "local").string()),
        std::make_unique<RemoteCacheBackend>(std::move(Config)));
  }

  CacheBackend &backend() { return *Tiered; }
};

} // namespace

INSTANTIATE_TYPED_TEST_SUITE_P(LocalDir, CacheBackendConformance,
                               LocalDirHarness);
INSTANTIATE_TYPED_TEST_SUITE_P(InMemory, CacheBackendConformance,
                               InMemoryHarness);
INSTANTIATE_TYPED_TEST_SUITE_P(Remote, CacheBackendConformance,
                               RemoteHarness);
INSTANTIATE_TYPED_TEST_SUITE_P(Tiered, CacheBackendConformance,
                               TieredHarness);
