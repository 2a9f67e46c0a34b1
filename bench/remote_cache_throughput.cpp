//===- bench/remote_cache_throughput.cpp - Networked-cache benchmarks -----===//
//
// Google-benchmark microbenchmarks of the remote measurement-cache
// tier: put/get round trips against an in-process loopback fgbs_cached
// server at 1-8 client threads, and the tiered backend's warm local hit
// (the steady state of a fleet run — it must stay a filesystem read,
// never a network round trip).  Numbers are checked into
// BENCH_remote_cache.json for the CI perf gate.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/core/TieredCacheBackend.h"
#include "fgbs/net/CacheServer.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/support/Crc32.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

using namespace fgbs;
namespace fs = std::filesystem;

namespace {

/// A representative entry size: the synthetic-suite fgbs.meas.v1
/// payload is a few hundred KB; 256 KiB keeps the wire cost honest
/// without dominating CI time.
constexpr std::size_t kBlobBytes = 256u << 10;

std::string benchBlob() {
  std::string Out;
  Out.reserve(kBlobBytes);
  for (std::size_t I = 0; I < kBlobBytes; ++I)
    Out.push_back(static_cast<char>(I * 131 % 256));
  return Out;
}

/// One loopback server for the whole binary, over a scratch directory.
class BenchServer {
public:
  BenchServer() {
    Root = fs::temp_directory_path() /
           ("fgbs_bench_remote_cache_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(Root);
    net::CacheServerConfig Config;
    Config.Root = (Root / "server").string();
    // Connections are long-lived and worker-bound, so the pool must
    // cover the widest client fan-out below (8 bench threads) or the
    // excess clients would measure queueing, not the wire.
    Config.Threads = 16;
    Config.BindAddr = "127.0.0.1";
    Server = std::make_unique<net::CacheServer>(std::move(Config));
    std::string Error;
    if (!Server->start(&Error)) {
      std::fprintf(stderr, "cannot start bench server: %s\n", Error.c_str());
      std::abort();
    }
  }
  ~BenchServer() {
    Server->stop();
    fs::remove_all(Root);
  }

  std::uint16_t port() const { return Server->port(); }
  const fs::path &root() const { return Root; }

private:
  fs::path Root;
  std::unique_ptr<net::CacheServer> Server;
};

BenchServer &server() {
  static BenchServer S;
  return S;
}

RemoteCacheConfig clientConfig() {
  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = server().port();
  return Config;
}

std::string uniqueName(const char *Tag, std::uint64_t N) {
  char Name[64];
  std::snprintf(Name, sizeof(Name), "fgbs-meas-%08x%08x.v1",
                static_cast<unsigned>(N & 0xffffffffu),
                static_cast<unsigned>(crc32(Tag)));
  return Name;
}

/// Cold stores: every iteration publishes a fresh 256 KiB entry.  The
/// per-op cost is one frame each way plus the server's atomic publish.
void BM_RemoteColdPut(benchmark::State &State) {
  static const std::string Blob = benchBlob();
  // Per-thread client: the backend serializes its pooled connection, so
  // sharing one across threads would measure the mutex, not the wire.
  RemoteCacheBackend Client(clientConfig());
  static std::atomic<std::uint64_t> Serial{0};
  for (auto _ : State) {
    if (!Client.put(uniqueName("coldput", Serial.fetch_add(1)), Blob))
      State.SkipWithError("put failed");
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Blob.size()));
}
BENCHMARK(BM_RemoteColdPut)->ThreadRange(1, 8)->Unit(benchmark::kMicrosecond);

/// Warm gets of one shared entry — the fleet's "host B loads what host
/// A simulated" path.
void BM_RemoteWarmGet(benchmark::State &State) {
  static const std::string Blob = benchBlob();
  static const std::string Name = [&] {
    RemoteCacheBackend Seeder(clientConfig());
    std::string N = uniqueName("warmget", 0);
    Seeder.put(N, Blob);
    return N;
  }();
  RemoteCacheBackend Client(clientConfig());
  std::string Bytes;
  for (auto _ : State) {
    if (!Client.get(Name, Bytes))
      State.SkipWithError("get failed");
    benchmark::DoNotOptimize(Bytes);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Blob.size()));
}
BENCHMARK(BM_RemoteWarmGet)->ThreadRange(1, 8)->Unit(benchmark::kMicrosecond);

/// The tiered steady state: the entry is already in the local tier, so
/// a get must cost a local file read and touch the network not at all.
/// This is the number the perf gate pins — a regression here means the
/// remote tier started taxing every warm run.
void BM_TieredWarmLocalHit(benchmark::State &State) {
  static const std::string Blob = benchBlob();
  static const std::string Name = uniqueName("tiered", 2);
  thread_local std::unique_ptr<TieredCacheBackend> Tiered;
  if (!Tiered) {
    const std::string LocalDir =
        (server().root() /
         ("local-" + std::to_string(State.thread_index())))
            .string();
    Tiered = std::make_unique<TieredCacheBackend>(
        std::make_unique<LocalDirBackend>(LocalDir),
        std::make_unique<RemoteCacheBackend>(clientConfig()));
    Tiered->put(Name, Blob);
  }
  std::string Bytes;
  for (auto _ : State) {
    if (!Tiered->get(Name, Bytes))
      State.SkipWithError("tiered get failed");
    benchmark::DoNotOptimize(Bytes);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Blob.size()));
}
BENCHMARK(BM_TieredWarmLocalHit)->ThreadRange(1, 8)
    ->Unit(benchmark::kMicrosecond);

/// Console output as usual, plus every per-iteration result recorded
/// into the telemetry session so the run exports as fgbs.run.v1 (the
/// schema bench/BENCH_remote_cache.json and the CI perf gate consume).
class SessionReporter : public benchmark::ConsoleReporter {
public:
  explicit SessionReporter(obs::Session &Out) : Out(Out) {}

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports)
      if (R.run_type == Run::RT_Iteration && !R.error_occurred)
        Out.recordBenchmark(R.benchmark_name(), R.GetAdjustedRealTime());
    ConsoleReporter::ReportRuns(Reports);
  }

private:
  obs::Session &Out;
};

} // namespace

int main(int argc, char **argv) {
  // Honours FGBS_RUN_JSON / FGBS_TRACE_JSON / FGBS_TELEMETRY; with none
  // of them set this is exactly BENCHMARK_MAIN().
  obs::Session Run("remote_cache_throughput");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  SessionReporter Reporter(Run);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return 0;
}
