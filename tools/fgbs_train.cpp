//===- tools/fgbs_train.cpp - Train and persist a model snapshot ----------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
// The offline half of the service: run the full subsetting pipeline
// (profile, cluster, select representatives, measure them on every
// target) over a suite and persist the result as an fgbs.model.v1
// snapshot that tools/fgbs_query serves online.
//
//   fgbs_train --suite nr|nas|synthetic --out model.fgbs [--k N]
//              [--threads N] [--cache DIR | --no-cache]
//              [--cache-remote HOST:PORT]
//              [--cache-max-bytes N] [--cache-max-age SECONDS]
//              [--publish fgbs://HOST:PORT/NAME[@TAG]]
//   fgbs_train --cache DIR --cache-prune [--cache-max-bytes N]
//              [--cache-max-age SECONDS]
//
// Honours FGBS_TELEMETRY / FGBS_RUN_JSON / FGBS_TRACE_JSON like every
// other FGBS surface, plus FGBS_THREADS (default measurement fan-out),
// FGBS_MEAS_CACHE (default measurement-cache directory),
// FGBS_MEAS_CACHE_REMOTE (default fgbs_cached address),
// FGBS_MEAS_CACHE_MAX_BYTES (default cache byte budget), and
// FGBS_MODEL_CACHE (default local model-snapshot cache directory).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/core/ModelRegistry.h"
#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/service/Snapshot.h"
#include "fgbs/suites/Suites.h"
#include "fgbs/suites/Synthetic.h"

#include <cstdlib>
#include <iostream>
#include <string>

using namespace fgbs;

namespace {

constexpr const char *kVersion = "fgbs_train (fgbs.model.v1 writer) 1.0";

int usage(std::ostream &OS, int Exit) {
  OS << "usage: fgbs_train --suite nr|nas|synthetic --out PATH [--k N]\n"
        "                  [--threads N] [--cache DIR | --no-cache]\n"
        "                  [--cache-remote HOST:PORT]\n"
        "                  [--cache-max-bytes N] [--cache-max-age SEC]\n"
        "                  [--publish fgbs://HOST:PORT/NAME[@TAG]]\n"
        "                  [--model-cache DIR]\n"
        "       fgbs_train --cache DIR --cache-prune\n"
        "                  [--cache-max-bytes N] [--cache-max-age SEC]\n"
        "\n"
        "Runs the benchmark-subsetting pipeline over the chosen suite on\n"
        "the reference machine and writes an fgbs.model.v1 snapshot that\n"
        "fgbs_query can serve without re-running the pipeline.\n"
        "\n"
        "  --suite NAME   nr (Numerical Recipes), nas (NAS SER), or\n"
        "                 synthetic (the deterministic synthetic corpus)\n"
        "  --out PATH     snapshot file to write (required unless\n"
        "                 --publish is given)\n"
        "  --publish URI  publish the snapshot to a model registry\n"
        "                 (a namespace-aware fgbs_cached) and point the\n"
        "                 URI's tag (default 'latest') at it; snapshot\n"
        "                 blob first, then the ref, so a crash never\n"
        "                 leaves a dangling tag\n"
        "  --model-cache DIR\n"
        "                 local model-snapshot cache memoizing what this\n"
        "                 host published/pulled (default: the\n"
        "                 FGBS_MODEL_CACHE environment variable)\n"
        "  --k N          force N clusters (default: Elbow-selected)\n"
        "  --threads N    measurement threads (default: the FGBS_THREADS\n"
        "                 environment variable, else all hardware threads;\n"
        "                 any count produces bit-identical measurements)\n"
        "  --cache DIR    measurement-cache directory: a warm run loads\n"
        "                 the finished fgbs.meas.v1 database from DIR and\n"
        "                 skips simulation entirely (default: the\n"
        "                 FGBS_MEAS_CACHE environment variable).  Safe\n"
        "                 under concurrent cold runs: one simulates and\n"
        "                 publishes, the rest wait and load\n"
        "  --no-cache     never read or write the measurement cache, even\n"
        "                 when FGBS_MEAS_CACHE is set\n"
        "  --cache-remote HOST:PORT\n"
        "                 fgbs_cached server sharing measurements across\n"
        "                 a fleet (default: FGBS_MEAS_CACHE_REMOTE).  With\n"
        "                 --cache DIR the cache is tiered: local reads\n"
        "                 first, remote hits fill the local tier, stores\n"
        "                 go to the server too.  An unreachable server\n"
        "                 degrades to the local tier with a warning; it\n"
        "                 never fails the run\n"
        "  --cache-max-bytes N\n"
        "                 cache entry-byte budget, LRU-pruned after each\n"
        "                 store (default: FGBS_MEAS_CACHE_MAX_BYTES, else\n"
        "                 unbounded)\n"
        "  --cache-max-age SEC\n"
        "                 evict entries unused for more than SEC seconds\n"
        "                 (default: unbounded)\n"
        "  --cache-prune  prune the cache directory to the configured\n"
        "                 budgets and exit without training\n"
        "  --help         print this help and exit\n"
        "  --version      print the tool version and exit\n";
  return Exit;
}

bool parseU64(const char *Text, std::uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string SuiteName = "nr";
  std::string OutPath;
  std::string PublishUri;
  std::string ModelCacheDir;
  unsigned K = 0;
  bool PruneOnly = false;
  DatabaseBuildOptions Build;
  if (const char *Dir = std::getenv("FGBS_MEAS_CACHE"))
    Build.CacheDir = Dir;
  if (const char *Dir = std::getenv("FGBS_MODEL_CACHE"))
    ModelCacheDir = Dir;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help" || Arg == "-h")
      return usage(std::cout, 0);
    if (Arg == "--version") {
      std::cout << kVersion << "\n";
      return 0;
    }
    if (Arg == "--suite" && I + 1 < argc) {
      SuiteName = argv[++I];
    } else if (Arg == "--out" && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (Arg == "--publish" && I + 1 < argc) {
      PublishUri = argv[++I];
    } else if (Arg == "--model-cache" && I + 1 < argc) {
      ModelCacheDir = argv[++I];
    } else if (Arg == "--k" && I + 1 < argc) {
      char *End = nullptr;
      long V = std::strtol(argv[++I], &End, 10);
      if (End == argv[I] || *End != '\0' || V <= 0) {
        std::cerr << "fgbs_train: --k needs a positive integer\n";
        return usage(std::cerr, 2);
      }
      K = static_cast<unsigned>(V);
    } else if (Arg == "--threads" && I + 1 < argc) {
      char *End = nullptr;
      long V = std::strtol(argv[++I], &End, 10);
      if (End == argv[I] || *End != '\0' || V <= 0) {
        std::cerr << "fgbs_train: --threads needs a positive integer\n";
        return usage(std::cerr, 2);
      }
      Build.Threads = static_cast<unsigned>(V);
    } else if (Arg == "--cache" && I + 1 < argc) {
      Build.CacheDir = argv[++I];
    } else if (Arg == "--cache-remote" && I + 1 < argc) {
      Build.CacheRemote = argv[++I];
      RemoteCacheConfig Probe;
      if (!parseRemoteCacheAddress(Build.CacheRemote, Probe)) {
        std::cerr << "fgbs_train: --cache-remote needs HOST:PORT\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--no-cache") {
      Build.UseCache = false;
    } else if (Arg == "--cache-max-bytes" && I + 1 < argc) {
      if (!parseU64(argv[++I], Build.CacheMaxBytes)) {
        std::cerr << "fgbs_train: --cache-max-bytes needs a byte count\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--cache-max-age" && I + 1 < argc) {
      if (!parseU64(argv[++I], Build.CacheMaxAgeSeconds)) {
        std::cerr << "fgbs_train: --cache-max-age needs a second count\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--cache-prune") {
      PruneOnly = true;
    } else {
      std::cerr << "fgbs_train: unknown argument '" << Arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (PruneOnly) {
    if (Build.CacheDir.empty()) {
      std::cerr << "fgbs_train: --cache-prune needs a cache directory "
                   "(--cache DIR or FGBS_MEAS_CACHE)\n";
      return usage(std::cerr, 2);
    }
    LocalDirBackend Dir(Build.CacheDir);
    std::uint64_t MaxBytes = Build.CacheMaxBytes
                                 ? Build.CacheMaxBytes
                                 : measurementCacheEnvMaxBytes();
    CachePruneStats Stats =
        pruneMeasurementEntries(Dir, MaxBytes, Build.CacheMaxAgeSeconds);
    std::cout << "pruned '" << Build.CacheDir << "': " << Stats.Removed
              << " of " << Stats.Entries << " entries evicted, "
              << Stats.BytesBefore << " -> " << Stats.BytesAfter << " bytes\n";
    return 0;
  }

  ModelUri Publish;
  if (!PublishUri.empty()) {
    std::string UriError;
    if (!parseModelUri(PublishUri, Publish, &UriError)) {
      std::cerr << "fgbs_train: --publish: " << UriError << "\n";
      return usage(std::cerr, 2);
    }
    if (!Publish.Sha256Hex.empty()) {
      std::cerr << "fgbs_train: --publish takes a tag, not an explicit "
                   "hash (the hash is computed from the bytes)\n";
      return usage(std::cerr, 2);
    }
  }
  if (OutPath.empty() && PublishUri.empty()) {
    std::cerr << "fgbs_train: --out or --publish is required\n";
    return usage(std::cerr, 2);
  }

  Suite S;
  if (SuiteName == "nr") {
    S = makeNumericalRecipes();
  } else if (SuiteName == "nas") {
    S = makeNasSer();
  } else if (SuiteName == "synthetic") {
    S = makeSyntheticSuite({});
  } else {
    std::cerr << "fgbs_train: unknown suite '" << SuiteName << "'\n";
    return usage(std::cerr, 2);
  }

  obs::Session Run("fgbs_train");

  std::uint64_t ProfileStart = obs::nowNs();
  std::unique_ptr<MeasurementDatabase> DbPtr =
      buildMeasurementDatabase(S, makeNehalem(), paperTargets(), Build);
  MeasurementDatabase &Db = *DbPtr;
  Run.recordValue("profile_ms",
                  static_cast<double>(obs::nowNs() - ProfileStart) / 1e6);

  PipelineConfig Config;
  Config.K = K;
  std::uint64_t PipelineStart = obs::nowNs();
  PipelineResult R = Pipeline(Db, Config).run();
  Run.recordValue("pipeline_ms",
                  static_cast<double>(obs::nowNs() - PipelineStart) / 1e6);

  if (R.Selection.FinalK == 0) {
    std::cerr << "fgbs_train: suite '" << SuiteName
              << "' yields no representatives (every codelet is "
                 "ill-behaved); nothing to serve\n";
    return 1;
  }

  service::ModelSnapshot Snapshot = service::buildSnapshot(Db, R);
  if (!OutPath.empty() && !service::saveSnapshotFile(OutPath, Snapshot)) {
    std::cerr << "fgbs_train: cannot write '" << OutPath << "'\n";
    return 1;
  }
  std::string Bytes = service::serializeSnapshot(Snapshot);

  if (!PublishUri.empty()) {
    RemoteCacheConfig Remote;
    Remote.Host = Publish.Host;
    Remote.Port = Publish.Port;
    ModelRegistry Registry(std::make_unique<RemoteCacheBackend>(Remote),
                           ModelCacheDir);
    PublishResult Published =
        Registry.publish(Publish.Name, Publish.Tag, Bytes);
    if (!Published) {
      std::cerr << "fgbs_train: publish failed ("
                << registryErrorName(Published.Error)
                << "): " << Published.Message << "\n";
      return 1;
    }
    Run.recordValue("publish_bytes", static_cast<double>(Bytes.size()));
    std::cout << "published " << Publish.Name << "@" << Publish.Tag
              << " -> sha256:" << Published.Sha256Hex
              << (Published.SnapshotAlreadyPresent ? " (blob already present)"
                                                   : "")
              << "\n";
  }

  Run.recordValue("snapshot_bytes", static_cast<double>(Bytes.size()));
  Run.recordValue("clusters", static_cast<double>(Snapshot.numClusters()));
  Run.recordValue("codelets", static_cast<double>(Snapshot.numCodelets()));
  Run.recordValue("targets", static_cast<double>(Snapshot.numTargets()));
  Run.recordValue("elbow_k", static_cast<double>(R.ElbowK));

  std::cout << "trained '" << Snapshot.SuiteName << "' on "
            << Snapshot.ReferenceName << ": " << Snapshot.numClusters()
            << " clusters over " << Snapshot.numCodelets() << " codelets, "
            << Snapshot.numTargets() << " targets, " << Bytes.size()
            << " bytes -> "
            << (OutPath.empty() ? std::string("(registry only)") : OutPath)
            << "\n";
  return 0;
}
