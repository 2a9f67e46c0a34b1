//===- bench/model_registry_throughput.cpp - Model registry benchmarks ----===//
//
// Google-benchmark microbenchmarks of the model-distribution path: the
// SHA-256 verify every pull pays, publish (hash + blob put + ref put)
// against an in-process loopback fgbs_cached, cold pulls that move the
// payload over the wire, warm pulls that must stay a local verified
// read (by hash: zero network; by tag: one ref round trip), and
// scan-by-prefix enumeration across published models.  Numbers are
// checked into BENCH_model_registry.json for the CI perf gate; the
// load-bearing ratio is warm-pull vs cold-pull — if the warm path
// stops being several times cheaper, read-through memoization has
// stopped paying for itself.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/ModelRegistry.h"
#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/net/CacheServer.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/support/Sha256.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

using namespace fgbs;
namespace fs = std::filesystem;

namespace {

/// A representative snapshot size: the synthetic-suite fgbs.model.v1
/// image is a few hundred KB; 256 KiB keeps wire and hash costs honest
/// without dominating CI time.
constexpr std::size_t kSnapshotBytes = 256u << 10;

std::string benchSnapshot(unsigned Seed) {
  std::string Out;
  Out.reserve(kSnapshotBytes);
  for (std::size_t I = 0; I < kSnapshotBytes; ++I)
    Out.push_back(static_cast<char>((I * 131 + Seed * 977) % 256));
  return Out;
}

/// One loopback server for the whole binary, over a scratch directory.
class BenchServer {
public:
  BenchServer() {
    Root = fs::temp_directory_path() /
           ("fgbs_bench_model_registry_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(Root);
    net::CacheServerConfig Config;
    Config.Root = (Root / "server").string();
    Config.Threads = 8;
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

std::unique_ptr<ModelRegistry> makeRegistry(const std::string &CacheTag) {
  RemoteCacheConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = server().port();
  const std::string Dir =
      CacheTag.empty() ? std::string()
                       : (server().root() / ("local-" + CacheTag)).string();
  return std::make_unique<ModelRegistry>(
      std::make_unique<RemoteCacheBackend>(std::move(Config)), Dir);
}

/// The integrity tax on every pull: one SHA-256 pass over the image.
void BM_Sha256Snapshot(benchmark::State &State) {
  const std::string Snapshot = benchSnapshot(1);
  for (auto _ : State) {
    std::string Hex = sha256Hex(Snapshot);
    benchmark::DoNotOptimize(Hex);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Snapshot.size()));
}
BENCHMARK(BM_Sha256Snapshot)->Unit(benchmark::kMicrosecond);

/// Publish of fresh bytes: hash + existence check + snapshot put + ref
/// put.  Every iteration is a new content address (distinct bytes), so
/// the idempotent already-present fast path never triggers.
void BM_RegistryPublish(benchmark::State &State) {
  auto Registry = makeRegistry("publish");
  unsigned Seed = 0;
  for (auto _ : State) {
    PublishResult P =
        Registry->publish("bench-publish", "latest", benchSnapshot(++Seed));
    if (!P)
      State.SkipWithError(P.Message.c_str());
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(kSnapshotBytes));
}
BENCHMARK(BM_RegistryPublish)->Unit(benchmark::kMicrosecond);

/// Cold pull by tag: ref round trip + payload over the wire + verify.
/// Local caching is disabled so every iteration pays the full cost.
void BM_RegistryColdPull(benchmark::State &State) {
  {
    auto Seeder = makeRegistry("");
    PublishResult P =
        Seeder->publish("bench-cold", "latest", benchSnapshot(2));
    if (!P) {
      State.SkipWithError(P.Message.c_str());
      return;
    }
  }
  auto Registry = makeRegistry("");
  for (auto _ : State) {
    PullResult R = Registry->pull("bench-cold", "latest");
    if (!R)
      State.SkipWithError(R.Message.c_str());
    benchmark::DoNotOptimize(R.Bytes);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(kSnapshotBytes));
}
BENCHMARK(BM_RegistryColdPull)->Unit(benchmark::kMicrosecond);

/// Warm pull by tag: one ref round trip, payload from the verified
/// local copy — the steady state of a query fleet.
void BM_RegistryWarmPullByTag(benchmark::State &State) {
  auto Registry = makeRegistry("warmtag");
  PublishResult P =
      Registry->publish("bench-warm", "latest", benchSnapshot(3));
  if (!P) {
    State.SkipWithError(P.Message.c_str());
    return;
  }
  for (auto _ : State) {
    PullResult R = Registry->pull("bench-warm", "latest");
    if (!R || R.FetchedFromRemote)
      State.SkipWithError("warm pull went to the network");
    benchmark::DoNotOptimize(R.Bytes);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(kSnapshotBytes));
}
BENCHMARK(BM_RegistryWarmPullByTag)->Unit(benchmark::kMicrosecond);

/// Warm pull by explicit hash: no ref resolution, zero network — a
/// verified local file read.  This is the floor the warm-by-tag path
/// sits one ref round trip above.
void BM_RegistryWarmPullByHash(benchmark::State &State) {
  auto Registry = makeRegistry("warmhash");
  PublishResult P =
      Registry->publish("bench-warm-hash", "latest", benchSnapshot(4));
  if (!P) {
    State.SkipWithError(P.Message.c_str());
    return;
  }
  for (auto _ : State) {
    PullResult R = Registry->pullByHash("bench-warm-hash", P.Sha256Hex);
    if (!R || R.FetchedFromRemote)
      State.SkipWithError("warm pull went to the network");
    benchmark::DoNotOptimize(R.Bytes);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(kSnapshotBytes));
}
BENCHMARK(BM_RegistryWarmPullByHash)->Unit(benchmark::kMicrosecond);

/// Enumeration cost: one scan-by-prefix over 32 published models (64
/// entries: a sha blob + a ref each), names and sizes only.
void BM_RegistryScanPrefix(benchmark::State &State) {
  static const bool Seeded = [] {
    auto Seeder = makeRegistry("");
    for (unsigned I = 0; I < 32; ++I) {
      std::string Tiny = "tiny snapshot " + std::to_string(I);
      PublishResult P =
          Seeder->publish("bench-scan-" + std::to_string(I), "latest", Tiny);
      if (!P)
        return false;
    }
    return true;
  }();
  if (!Seeded) {
    State.SkipWithError("seeding failed");
    return;
  }
  auto Registry = makeRegistry("");
  for (auto _ : State) {
    ScanPrefixResult R = Registry->list("");
    if (!R)
      State.SkipWithError(R.Message.c_str());
    benchmark::DoNotOptimize(R.Entries);
  }
}
BENCHMARK(BM_RegistryScanPrefix)->Unit(benchmark::kMicrosecond);

/// Mirrors each benchmark's steady-state time into the fgbs.run.v1
/// session report, where the CI perf gate reads it.
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
  obs::Session Run("model_registry_throughput");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  SessionReporter Reporter(Run);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return 0;
}
