//===- tools/fgbs_cached.cpp - Shared measurement-cache daemon ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
// The fleet-facing half of the measurement cache: serve one directory
// of fgbs.meas.v1 entries (and the model registry's snapshots and refs)
// over the fgbs.cachewire.v1 protocol so many fgbs_train runs — across
// processes and across hosts — share what one of them simulated instead
// of paying the paper's simulation cost again (hosts that start one cold
// key at the same moment may each simulate it; they publish identical
// bytes).  --root holds the entries, one file each, and nothing else;
// the budgets bound the whole server.
//
//   fgbs_cached --root DIR [--port N] [--threads N] [--bind ADDR]
//               [--max-bytes N] [--max-age SECONDS]
//               [--model-max-bytes N] [--model-max-age SECONDS]
//               [--port-file PATH]
//   fgbs_cached --ping HOST:PORT
//   fgbs_cached --stats HOST:PORT [--json]
//
// Runs until SIGINT/SIGTERM, then drains connections and exits cleanly
// (so the fgbs.run.v1 report is written).  Honours FGBS_TELEMETRY /
// FGBS_RUN_JSON / FGBS_TRACE_JSON like every other FGBS surface.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/RemoteCacheBackend.h"
#include "fgbs/net/CacheServer.h"
#include "fgbs/obs/RunReport.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

using namespace fgbs;

namespace {

constexpr const char *kVersion = "fgbs_cached (fgbs.cachewire.v1 server) 1.0";

std::atomic<bool> ShutdownRequested{false};

void onSignal(int) { ShutdownRequested.store(true); }

int usage(std::ostream &OS, int Exit) {
  OS << "usage: fgbs_cached --root DIR [--port N] [--threads N]\n"
        "                   [--bind ADDR] [--max-bytes N] [--max-age SEC]\n"
        "                   [--model-max-bytes N] [--model-max-age SEC]\n"
        "                   [--port-file PATH]\n"
        "       fgbs_cached --ping HOST:PORT\n"
        "       fgbs_cached --stats HOST:PORT [--json]\n"
        "\n"
        "Serves one measurement-cache directory to a fleet of fgbs_train\n"
        "runs over the fgbs.cachewire.v1 protocol, so a suite/machine\n"
        "configuration simulated on one host loads on the others instead\n"
        "of re-simulating.  The budgets bound the whole server.  Runs\n"
        "until SIGINT/SIGTERM.\n"
        "\n"
        "  --root DIR     directory holding the entries, one file each and\n"
        "                 nothing else (created on start); keep the port\n"
        "                 file and run reports outside it\n"
        "  --port N       TCP port (default 0: kernel-chosen, printed on\n"
        "                 stdout and written to --port-file)\n"
        "  --threads N    worker threads serving connections (default 4)\n"
        "  --bind ADDR    IPv4 bind address (default: all interfaces)\n"
        "  --max-bytes N  whole-server byte budget of the measurement\n"
        "                 entries, LRU-pruned after each store of one\n"
        "                 (default: unbounded)\n"
        "  --max-age SEC  evict entries unused for more than SEC seconds\n"
        "                 (default: unbounded)\n"
        "  --model-max-bytes N\n"
        "                 separate whole-server byte budget for the model/\n"
        "                 namespace's snapshot blobs (refs are never\n"
        "                 budget-pruned; default: unbounded)\n"
        "  --model-max-age SEC\n"
        "                 evict model snapshot blobs unused for more than\n"
        "                 SEC seconds (default: unbounded)\n"
        "  --port-file PATH\n"
        "                 write the bound port as a line of text (for\n"
        "                 scripts using --port 0)\n"
        "  --ping HOST:PORT\n"
        "                 check a running daemon and exit (0 = healthy)\n"
        "  --stats HOST:PORT\n"
        "                 print a running daemon's footprint and request\n"
        "                 counters and exit\n"
        "  --json         with --stats: emit one fgbs.cachestats.v1 JSON\n"
        "                 document instead of the human-readable text\n"
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
  net::CacheServerConfig Config;
  std::string PortFile;
  std::string PingSpec;
  std::string StatsSpec;
  bool StatsJson = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help" || Arg == "-h")
      return usage(std::cout, 0);
    if (Arg == "--version") {
      std::cout << kVersion << "\n";
      return 0;
    }
    std::uint64_t U = 0;
    if (Arg == "--root" && I + 1 < argc) {
      Config.Root = argv[++I];
    } else if (Arg == "--port" && I + 1 < argc) {
      if (!parseU64(argv[++I], U) || U > 65535) {
        std::cerr << "fgbs_cached: --port needs 0..65535\n";
        return usage(std::cerr, 2);
      }
      Config.Port = static_cast<std::uint16_t>(U);
    } else if (Arg == "--threads" && I + 1 < argc) {
      if (!parseU64(argv[++I], U) || U == 0 || U > 256) {
        std::cerr << "fgbs_cached: --threads needs 1..256\n";
        return usage(std::cerr, 2);
      }
      Config.Threads = static_cast<unsigned>(U);
    } else if (Arg == "--bind" && I + 1 < argc) {
      Config.BindAddr = argv[++I];
    } else if (Arg == "--max-bytes" && I + 1 < argc) {
      if (!parseU64(argv[++I], Config.MaxBytes)) {
        std::cerr << "fgbs_cached: --max-bytes needs a byte count\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--max-age" && I + 1 < argc) {
      if (!parseU64(argv[++I], Config.MaxAgeSeconds)) {
        std::cerr << "fgbs_cached: --max-age needs a second count\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--model-max-bytes" && I + 1 < argc) {
      if (!parseU64(argv[++I], Config.ModelMaxBytes)) {
        std::cerr << "fgbs_cached: --model-max-bytes needs a byte count\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--model-max-age" && I + 1 < argc) {
      if (!parseU64(argv[++I], Config.ModelMaxAgeSeconds)) {
        std::cerr << "fgbs_cached: --model-max-age needs a second count\n";
        return usage(std::cerr, 2);
      }
    } else if (Arg == "--port-file" && I + 1 < argc) {
      PortFile = argv[++I];
    } else if (Arg == "--ping" && I + 1 < argc) {
      PingSpec = argv[++I];
    } else if (Arg == "--stats" && I + 1 < argc) {
      StatsSpec = argv[++I];
    } else if (Arg == "--json") {
      StatsJson = true;
    } else {
      std::cerr << "fgbs_cached: unknown argument '" << Arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (!PingSpec.empty()) {
    RemoteCacheConfig Remote;
    if (!parseRemoteCacheAddress(PingSpec, Remote)) {
      std::cerr << "fgbs_cached: --ping needs HOST:PORT\n";
      return usage(std::cerr, 2);
    }
    Remote.MaxAttempts = 1;
    RemoteCacheBackend Backend(std::move(Remote));
    if (!Backend.ping()) {
      std::cerr << "fgbs_cached: no server at " << PingSpec << "\n";
      return 1;
    }
    std::cout << "ok: fgbs.cachewire.v1 server at " << PingSpec << "\n";
    return 0;
  }

  if (!StatsSpec.empty()) {
    RemoteCacheConfig Remote;
    if (!parseRemoteCacheAddress(StatsSpec, Remote)) {
      std::cerr << "fgbs_cached: --stats needs HOST:PORT\n";
      return usage(std::cerr, 2);
    }
    Remote.MaxAttempts = 1;
    RemoteCacheBackend Backend(std::move(Remote));
    RemoteCacheStats Stats;
    if (!Backend.statsRemote(Stats)) {
      std::cerr << "fgbs_cached: no server at " << StatsSpec << "\n";
      return 1;
    }
    if (StatsJson) {
      std::cout << renderStatsJson(Stats);
      return 0;
    }
    std::cout << "measurements: " << Stats.Entries << " entries, "
              << Stats.Bytes << " bytes\n"
              << "requests: " << Stats.Hits << " hits, " << Stats.Misses
              << " misses\n"
              << "model: " << Stats.ModelEntries << " entries, "
              << Stats.ModelBytes << " bytes; " << Stats.ModelGets
              << " gets, " << Stats.ModelPuts << " puts, "
              << Stats.ModelRefPuts << " ref puts, " << Stats.ScanPrefixes
              << " scans\n";
    return 0;
  }

  if (Config.Root.empty()) {
    std::cerr << "fgbs_cached: --root is required\n";
    return usage(std::cerr, 2);
  }

  obs::Session Run("fgbs_cached");

  net::CacheServer Server(std::move(Config));
  std::string Error;
  if (!Server.start(&Error)) {
    std::cerr << "fgbs_cached: cannot start: " << Error << "\n";
    return 1;
  }

  if (!PortFile.empty()) {
    std::ofstream OS(PortFile, std::ios::trunc);
    OS << Server.port() << "\n";
    if (!OS) {
      std::cerr << "fgbs_cached: cannot write port file '" << PortFile
                << "'\n";
      return 1;
    }
  }

  // stdout is the script-facing contract: the port line appears once
  // the server is accepting, so wrappers can wait for it.
  std::cout << "fgbs_cached: listening on port " << Server.port()
            << " (entries in '" << Server.root() << "')" << std::endl;

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  while (!ShutdownRequested.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::cout << "fgbs_cached: shutting down" << std::endl;
  Server.stop();
  return 0;
}
