//===- fgbs/net/CacheServer.h - Measurement-cache daemon --------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server half of the remote measurement-cache tier: a
/// ThreadPool-backed TCP daemon speaking fgbs.cachewire.v1 (net/Framing)
/// over one directory, a plain core/LocalDirBackend: its atomic publish,
/// its mtime as each entry's last use (a Get is a use) and
/// pruneEntries() as the eviction rule, the same ones a host's cache
/// directory runs.  Shipped as tools/fgbs_cached.
///
/// Every entry is one regular file directly under the root, named by
/// its wire name with '/' encoded as '~' — the flat layout a host's
/// --cache directory has.  The root holds entries and nothing else.
///
/// Namespaces: wire names without '/' are the flat measurement space,
/// and `model/<name>/...` is the model namespace, with its own
/// byte/age budgets — model snapshots are large and long-lived, and
/// must not be evicted by measurement churn (nor crowd measurements
/// out).  The two share the directory; the encoding keeps them apart,
/// since a flat name holds neither '/' nor '~'.  Within the model
/// namespace only `.../sha/<hex>` blobs are budget-pruned; tiny
/// `.../ref/<tag>` blobs are never touched by the pruner, so a dangling
/// ref means "the snapshot aged out", a condition the registry client
/// reports distinctly.
///
/// The server elects no writers: every Put is a LocalDirBackend put
/// (temp file, then rename), so clients racing on one name publish
/// whole entries and the last one wins.
///
/// Concurrency model: Threads workers (support/ThreadPool) each loop
/// accept -> serve-connection-until-idle -> accept.  A connection with
/// no request for one 250 ms poll slice is closed, so an idle client
/// holds a worker for at most that long; a request whose first byte is
/// in is read whole under a 10 s I/O deadline.  Connections are cheap
/// and short-lived, so a small pool serves a large fleet; the kernel
/// backlog absorbs bursts.  stop() sets the stop flag and shuts the
/// listener down, which wakes every waiting accept at once; a worker
/// still serving a connection first finishes its request or its idle
/// slice.
///
/// Telemetry: cachesrv.{requests,bytes_in,bytes_out,errors,connections}
/// plus cachesrv.get.{hits,misses}.
/// The Stats opcode reports from server-local atomics (always on,
/// independent of FGBS_TELEMETRY) plus one live directory scan.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_NET_CACHESERVER_H
#define FGBS_NET_CACHESERVER_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/net/Framing.h"
#include "fgbs/net/Socket.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace fgbs {
namespace net {

/// How a CacheServer runs.
struct CacheServerConfig {
  /// Directory the entries live in, one file each; created on start().
  std::string Root;
  /// Worker threads serving connections (0 = 4).
  unsigned Threads = 0;
  /// IPv4 bind address; empty = all interfaces.
  std::string BindAddr;
  /// TCP port; 0 = kernel-chosen ephemeral (read back via port()).
  std::uint16_t Port = 0;
  /// Lifecycle budgets of the whole server's measurement entries,
  /// enforced by a prune after each store of one (0 = unbounded).
  std::uint64_t MaxBytes = 0;
  std::uint64_t MaxAgeSeconds = 0;
  /// Same, for the model/ namespace (only sha blobs count, refs are
  /// never pruned).
  std::uint64_t ModelMaxBytes = 0;
  std::uint64_t ModelMaxAgeSeconds = 0;
};

/// The daemon: start() binds and serves in background threads until
/// stop() (or destruction).
class CacheServer {
public:
  explicit CacheServer(CacheServerConfig Config);
  ~CacheServer();

  CacheServer(const CacheServer &) = delete;
  CacheServer &operator=(const CacheServer &) = delete;

  /// Binds, creates the root directory, and spawns the worker pool.
  bool start(std::string *Error);

  /// Stops accepting at once, drains in-flight connections, joins the
  /// workers.  Idempotent.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

  /// The bound port (valid after start(); resolves Port = 0).
  std::uint16_t port() const { return Listen.port(); }

  const std::string &root() const { return Config.Root; }

private:
  void serveLoop();
  void acceptLoop();
  void serveConnection(Socket Conn);
  /// Handles one request frame; false means the connection must close
  /// (frame-level damage lost byte-stream sync).
  bool handleFrame(Socket &Conn, const Frame &Request);
  bool respond(Socket &Conn, Opcode Op, std::string_view Payload);
  bool respondError(Socket &Conn, const std::string &Message);

  /// Prunes the namespace a put of \p Name landed in to that
  /// namespace's budgets (model refs are exempt), with \p Name ranked
  /// first.  A no-op when the namespace has no budget.
  void pruneAfterPut(bool Model, const std::string &Name);

  CacheServerConfig Config;
  Listener Listen;
  std::unique_ptr<LocalDirBackend> Store;
  std::thread ServeThread;
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> Running{false};

  /// Always-on request counters served by the Stats opcode (the obs
  /// counters mirror these but vanish when FGBS_TELEMETRY is off).
  std::atomic<std::uint64_t> StatHits{0};
  std::atomic<std::uint64_t> StatMisses{0};
  std::atomic<std::uint64_t> StatModelGets{0};
  std::atomic<std::uint64_t> StatModelPuts{0};
  std::atomic<std::uint64_t> StatModelRefPuts{0};
  std::atomic<std::uint64_t> StatScanPrefixes{0};
};

/// True when \p Name is safe to map into the server's directory: non-empty,
/// at most 255 bytes, no path separators, and not "." or ".." — the
/// server rejects anything else before it touches the filesystem.
bool isValidEntryName(std::string_view Name);

} // namespace net
} // namespace fgbs

#endif // FGBS_NET_CACHESERVER_H
