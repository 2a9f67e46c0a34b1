//===- tools/fgbs_query.cpp - Online system-selection query CLI -----------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
// The online half of the service: load an fgbs.model.v1 snapshot and
// answer line-delimited JSON requests (see service/Protocol.h for the
// schema) — one response line per request line, errors as structured
// responses, never a crash.
//
//   fgbs_query MODEL [--script IN] [--out OUT]
//   fgbs_query --model fgbs://HOST:PORT/NAME[@TAG|@sha256:HEX] [...]
//
// The --model form pulls the snapshot from a model registry (a
// namespace-aware fgbs_cached), verifies it against its content hash,
// and memoizes it in a local cache directory so the next pull on this
// host transfers no payload; a dead registry degrades to that local
// copy.  Responses are byte-deterministic, so a replay is checked by
// comparing bytes (cmp, cmake -E compare_files).
//
// Honours FGBS_TELEMETRY / FGBS_RUN_JSON / FGBS_TRACE_JSON, plus
// FGBS_MODEL_CACHE (default local model-snapshot cache directory).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/ModelRegistry.h"
#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/service/Protocol.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

using namespace fgbs;

namespace {

constexpr const char *kVersion = "fgbs_query (fgbs.model.v1 reader) 1.0";

int usage(std::ostream &OS, int Exit) {
  OS << "usage: fgbs_query MODEL [--script IN] [--out OUT]\n"
        "       fgbs_query --model fgbs://HOST:PORT/NAME[@TAG|@sha256:HEX]\n"
        "                  [--model-cache DIR] [--script IN] [--out OUT]\n"
        "\n"
        "Serves line-delimited JSON requests against a trained\n"
        "fgbs.model.v1 snapshot (see fgbs_train).  Requests are read\n"
        "from stdin (or --script FILE), one JSON object per line;\n"
        "responses go to stdout (or --out FILE), one per line.\n"
        "\n"
        "  ops: {\"op\":\"info\"}\n"
        "       {\"op\":\"classify\",\"features\":[76 numbers]}\n"
        "       {\"op\":\"predict\",\"features\":[...],\"ref_seconds\":S}\n"
        "       {\"op\":\"rank\",\"queries\":[{...},...]}\n"
        "\n"
        "  --model URI     pull the snapshot from a model registry by tag\n"
        "                  (default 'latest') or explicit sha256 hash,\n"
        "                  verify it, and serve it.  Pulled bytes are\n"
        "                  memoized in the local model cache, so a warm\n"
        "                  pull is a ref check with no payload transfer\n"
        "                  and a dead registry degrades to the local copy\n"
        "  --model-cache DIR\n"
        "                  local model-snapshot cache directory (default:\n"
        "                  the FGBS_MODEL_CACHE environment variable)\n"
        "  --script IN     read requests from IN instead of stdin\n"
        "  --out OUT       write responses to OUT instead of stdout\n"
        "  --help          print this help and exit\n"
        "  --version       print the tool version and exit\n";
  return Exit;
}

} // namespace

int main(int argc, char **argv) {
  std::string ModelPath;
  std::string ModelUriArg;
  std::string ModelCacheDir;
  std::string ScriptPath;
  std::string OutPath;
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
    if (Arg == "--model" && I + 1 < argc) {
      ModelUriArg = argv[++I];
    } else if (Arg == "--model-cache" && I + 1 < argc) {
      ModelCacheDir = argv[++I];
    } else if (Arg == "--script" && I + 1 < argc) {
      ScriptPath = argv[++I];
    } else if (Arg == "--out" && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (ModelPath.empty() && !Arg.empty() && Arg[0] != '-') {
      ModelPath = Arg;
    } else {
      std::cerr << "fgbs_query: unknown argument '" << Arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (ModelPath.empty() == ModelUriArg.empty()) {
    std::cerr << "fgbs_query: exactly one of a MODEL path or --model URI "
                 "is required\n";
    return usage(std::cerr, 2);
  }

  obs::Session Run("fgbs_query");

  std::uint64_t LoadStart = obs::nowNs();
  service::SnapshotLoadResult Loaded;
  if (!ModelUriArg.empty()) {
    ModelUri Uri;
    std::string UriError;
    if (!parseModelUri(ModelUriArg, Uri, &UriError)) {
      std::cerr << "fgbs_query: --model: " << UriError << "\n";
      return usage(std::cerr, 2);
    }
    RemoteCacheConfig Remote;
    Remote.Host = Uri.Host;
    Remote.Port = Uri.Port;
    ModelRegistry Registry(std::make_unique<RemoteCacheBackend>(Remote),
                           ModelCacheDir);
    PullResult Pulled = Uri.Sha256Hex.empty()
                            ? Registry.pull(Uri.Name, Uri.Tag)
                            : Registry.pullByHash(Uri.Name, Uri.Sha256Hex);
    if (!Pulled) {
      std::cerr << "fgbs_query: cannot pull '" << ModelUriArg << "' ("
                << registryErrorName(Pulled.Error) << "): " << Pulled.Message
                << "\n";
      return 1;
    }
    if (Pulled.Degraded)
      std::cerr << "fgbs_query: warning: registry unreachable; serving the "
                   "locally cached copy of sha256:"
                << Pulled.Sha256Hex << "\n";
    Loaded = service::parseSnapshot(Pulled.Bytes);
    if (!Loaded) {
      std::cerr << "fgbs_query: pulled snapshot sha256:" << Pulled.Sha256Hex
                << " does not parse: "
                << service::snapshotErrorName(Loaded.Error) << " ("
                << Loaded.Message << ")\n";
      return 1;
    }
  } else {
    Loaded = service::loadSnapshotFile(ModelPath);
    if (!Loaded) {
      std::cerr << "fgbs_query: cannot load '" << ModelPath << "': "
                << service::snapshotErrorName(Loaded.Error) << " ("
                << Loaded.Message << ")\n";
      return 1;
    }
  }
  std::uint64_t LoadNs = obs::nowNs() - LoadStart;
  FGBS_HISTOGRAM_RECORD_NS("service.snapshot.load", LoadNs);
  Run.recordValue("snapshot_load_ms", static_cast<double>(LoadNs) / 1e6);

  service::SelectionService Svc(std::move(*Loaded.Snapshot));
  service::QueryEngine Engine(Svc);

  std::ifstream ScriptFile;
  if (!ScriptPath.empty()) {
    ScriptFile.open(ScriptPath);
    if (!ScriptFile) {
      std::cerr << "fgbs_query: cannot read '" << ScriptPath << "'\n";
      return 2;
    }
  }
  std::istream &In = ScriptPath.empty() ? std::cin : ScriptFile;

  std::ofstream OutFile;
  if (!OutPath.empty()) {
    OutFile.open(OutPath, std::ios::trunc);
    if (!OutFile) {
      std::cerr << "fgbs_query: cannot write '" << OutPath << "'\n";
      return 2;
    }
  }
  std::ostream &Out = OutPath.empty() ? std::cout : OutFile;

  std::size_t Requests = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Out << Engine.handleLine(Line) << "\n";
    Out.flush(); // One response per request line, even through pipes.
    ++Requests;
  }
  Run.recordValue("requests", static_cast<double>(Requests));
  return 0;
}
