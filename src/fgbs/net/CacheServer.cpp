//===- fgbs/net/CacheServer.cpp - Measurement-cache daemon ----------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/net/CacheServer.h"

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/ThreadPool.h"

using namespace fgbs;
using namespace fgbs::net;
using namespace fgbs::binio;

namespace {

/// Stop-flag poll interval for accept, and how long a connection may
/// sit idle between requests before the server closes it.
constexpr std::uint64_t kPollSliceMs = 250;

/// Deadline for reading the rest of a request frame once its first
/// byte is in, and for sending one reply frame.
constexpr std::uint64_t kIoTimeoutMs = 10000;

} // namespace

bool fgbs::net::isValidEntryName(std::string_view Name) {
  if (Name.empty() || Name.size() > 255)
    return false;
  if (Name == "." || Name == "..")
    return false;
  for (char C : Name)
    if (C == '/' || C == '\\' || C == '\0')
      return false;
  return true;
}

namespace {

/// Where a wire entry name is stored.  A name is stored under itself:
///
///   <flat>            -> Meas  (isValidEntryName)
///   model/<segments>  -> Model (own budgets)
///
/// Anything else is Invalid: another namespace, empty / "." / ".."
/// segments, characters outside [A-Za-z0-9._-] in a namespaced
/// segment, a trailing '/', "//", '~' anywhere (reserved as the storage
/// '/'-escape), and names over 255 bytes — there is exactly one
/// accepted spelling per entry, so validation cannot be dodged by an
/// alternate encoding.
enum class Space { Invalid, Meas, Model };

Space entrySpace(std::string_view Name) {
  if (Name.empty() || Name.size() > 255)
    return Space::Invalid;
  // '~' is LocalDirBackend's on-disk '/'-escape; a wire name carrying
  // it could collide with a different entry's encoded file name.
  if (Name.find('~') != std::string_view::npos)
    return Space::Invalid;
  const std::size_t Slash = Name.find('/');
  if (Slash == std::string_view::npos)
    return isValidEntryName(Name) ? Space::Meas : Space::Invalid;
  if (Name.substr(0, Slash) != "model")
    return Space::Invalid;
  // model/<seg>/<seg>/... — every segment canonical, no empty segment
  // (catches "model/", "//" and a trailing '/').
  std::string_view Tail = Name.substr(Slash + 1);
  while (true) {
    const std::size_t Next = Tail.find('/');
    if (!isValidNameSegment(Tail.substr(0, Next)))
      return Space::Invalid;
    if (Next == std::string_view::npos)
      return Space::Model;
    Tail = Tail.substr(Next + 1);
  }
}

} // namespace

CacheServer::CacheServer(CacheServerConfig Config)
    : Config(std::move(Config)) {
  if (this->Config.Threads == 0)
    this->Config.Threads = 4;
}

CacheServer::~CacheServer() { stop(); }

bool CacheServer::start(std::string *Error) {
  if (Running.load(std::memory_order_acquire))
    return true;
  if (Config.Root.empty()) {
    if (Error)
      *Error = "cache server needs a root directory";
    return false;
  }
  if (!Listen.listenOn(Config.BindAddr, Config.Port, /*Backlog=*/64, Error))
    return false;

  Store = std::make_unique<LocalDirBackend>(Config.Root);

  StopFlag.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  ServeThread = std::thread([this] { serveLoop(); });
  return true;
}

void CacheServer::stop() {
  StopFlag.store(true, std::memory_order_release);
  // Wakes every accept loop's poll now rather than at its slice's end.
  Listen.shutdown();
  if (ServeThread.joinable())
    ServeThread.join();
  Listen.close();
  Running.store(false, std::memory_order_release);
}

void CacheServer::serveLoop() {
  // The pool's parallelFor distributes worker indices; every index runs
  // an accept loop until the stop flag drains them all.  The serving
  // thread participates, so Threads is the true concurrency.
  ThreadPool Pool(Config.Threads);
  Pool.parallelFor(0, Config.Threads, [this](std::size_t) { acceptLoop(); });
}

void CacheServer::acceptLoop() {
  while (!StopFlag.load(std::memory_order_acquire)) {
    Socket Conn = Listen.acceptOnce(kPollSliceMs);
    if (Conn.valid())
      serveConnection(std::move(Conn));
  }
}

void CacheServer::serveConnection(Socket Conn) {
  FGBS_COUNTER_ADD("cachesrv.connections", 1);
  // A connection with no request for one slice is closed, so an idle
  // client never holds a worker that another client waits for; a client
  // reconnects on its next request.  A request whose first byte is in
  // is read whole under the I/O deadline, however its bytes are spaced.
  while (!StopFlag.load(std::memory_order_acquire) &&
         Conn.waitReadable(kPollSliceMs)) {
    Frame Request;
    WireError E = readFrame(Conn, Request, kIoTimeoutMs);
    if (E == WireError::Closed)
      return;
    if (E != WireError::None) {
      // Frame-level damage loses byte-stream sync: answer what we can
      // and drop the connection.
      FGBS_COUNTER_ADD("cachesrv.errors", 1);
      std::string Msg;
      putStr(Msg, std::string("bad frame: ") + wireErrorName(E));
      respond(Conn, Opcode::Error, Msg);
      return;
    }
    FGBS_COUNTER_ADD("cachesrv.requests", 1);
    FGBS_COUNTER_ADD("cachesrv.bytes_in",
                     kWireHeaderBytes + Request.Payload.size());
    if (!handleFrame(Conn, Request))
      return;
  }
}

bool CacheServer::respond(Socket &Conn, Opcode Op, std::string_view Payload) {
  FGBS_COUNTER_ADD("cachesrv.bytes_out", kWireHeaderBytes + Payload.size());
  return writeFrame(Conn, Op, Payload, kIoTimeoutMs);
}

bool CacheServer::respondError(Socket &Conn, const std::string &Message) {
  FGBS_COUNTER_ADD("cachesrv.errors", 1);
  std::string Payload;
  putStr(Payload, Message);
  return respond(Conn, Opcode::Error, Payload);
}

void CacheServer::pruneAfterPut(bool Model, const std::string &Name) {
  if (!Model) {
    if (Config.MaxBytes || Config.MaxAgeSeconds)
      pruneMeasurementEntries(*Store, Config.MaxBytes, Config.MaxAgeSeconds,
                              Name);
    return;
  }
  if (!Config.ModelMaxBytes && !Config.ModelMaxAgeSeconds)
    return;
  // Only `sha/` blobs are candidates.  Refs are tiny and namable —
  // pruning one would silently unpin a tag, whereas pruning a snapshot
  // produces the explicit dangling-ref condition the registry client
  // knows how to report.
  std::vector<CacheEntry> Blobs = Store->scan("model/", "");
  std::erase_if(Blobs, [](const CacheEntry &E) {
    return E.Name.find("/sha/") == std::string::npos;
  });
  pruneEntries(*Store, std::move(Blobs), Config.ModelMaxBytes,
               Config.ModelMaxAgeSeconds, Name);
}

bool CacheServer::handleFrame(Socket &Conn, const Frame &Request) {
  ByteReader In(Request.Payload);
  // Exists, Get, Put and Remove start with the entry's wire name.
  const bool NamesEntry =
      Request.Op == Opcode::Exists || Request.Op == Opcode::Get ||
      Request.Op == Opcode::Put || Request.Op == Opcode::Remove;
  std::string Name;
  bool Model = false;
  if (NamesEntry) {
    Name = In.str();
    const Space Ns = In.overrun() ? Space::Invalid : entrySpace(Name);
    if (Ns == Space::Invalid) {
      const std::string Op = opcodeName(Request.Op);
      return respondError(Conn, Op + ": bad name");
    }
    Model = Ns == Space::Model;
  }
  switch (Request.Op) {
  case Opcode::Ping: {
    std::string Out;
    putStr(Out, "fgbs.cachewire.v1");
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Exists:
    return respond(Conn, Opcode::Ok, std::string(1, Store->exists(Name)));

  case Opcode::Get: {
    std::string Bytes;
    if (!Store->get(Name, Bytes)) {
      FGBS_COUNTER_ADD("cachesrv.get.misses", 1);
      StatMisses.fetch_add(1, std::memory_order_relaxed);
      return respond(Conn, Opcode::NotFound, {});
    }
    FGBS_COUNTER_ADD("cachesrv.get.hits", 1);
    StatHits.fetch_add(1, std::memory_order_relaxed);
    if (Model)
      StatModelGets.fetch_add(1, std::memory_order_relaxed);
    return respond(Conn, Opcode::Ok, Bytes);
  }

  case Opcode::Put: {
    // The blob is the rest of the payload, unframed — no second length
    // field to disagree with the frame's.
    std::string_view Blob =
        std::string_view(Request.Payload).substr(4 + Name.size());
    if (!Store->put(Name, Blob))
      return respondError(Conn, "put: cannot publish '" + Name + "'");
    FGBS_COUNTER_ADD("cachesrv.puts", 1);
    if (Model) {
      StatModelPuts.fetch_add(1, std::memory_order_relaxed);
      if (Name.find("/ref/") != std::string::npos)
        StatModelRefPuts.fetch_add(1, std::memory_order_relaxed);
    }
    pruneAfterPut(Model, Name);
    return respond(Conn, Opcode::Ok, {});
  }

  case Opcode::Remove:
    return respond(Conn, Opcode::Ok, std::string(1, Store->remove(Name)));

  case Opcode::ScanPrefix: {
    std::string Prefix = In.str();
    if (In.overrun() || !In.atEnd())
      return respondError(Conn, "scan_prefix: damaged prefix");
    StatScanPrefixes.fetch_add(1, std::memory_order_relaxed);
    const std::vector<CacheEntry> All = Store->scan(Prefix, "");
    std::string Out;
    putU32(Out, static_cast<std::uint32_t>(All.size()));
    for (const CacheEntry &E : All) {
      putStr(Out, E.Name);
      putU64(Out, E.SizeBytes);
      putU64(Out, static_cast<std::uint64_t>(E.AccessUnixSeconds));
    }
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Stats: {
    if (!Request.Payload.empty())
      return respondError(Conn, "stats: unexpected payload");
    // One scan, split on the namespace: a flat name never starts with
    // `model/`.
    std::uint64_t Entries = 0, Bytes = 0, ModelEntries = 0, ModelBytes = 0;
    for (const CacheEntry &E : Store->scan("", "")) {
      const bool InModel = E.Name.starts_with("model/");
      ++(InModel ? ModelEntries : Entries);
      (InModel ? ModelBytes : Bytes) += E.SizeBytes;
    }
    std::string Out;
    putU64(Out, Entries);
    putU64(Out, Bytes);
    putU64(Out, StatHits.load(std::memory_order_relaxed));
    putU64(Out, StatMisses.load(std::memory_order_relaxed));
    putU64(Out, ModelEntries);
    putU64(Out, ModelBytes);
    putU64(Out, StatModelGets.load(std::memory_order_relaxed));
    putU64(Out, StatModelPuts.load(std::memory_order_relaxed));
    putU64(Out, StatModelRefPuts.load(std::memory_order_relaxed));
    putU64(Out, StatScanPrefixes.load(std::memory_order_relaxed));
    return respond(Conn, Opcode::Ok, Out);
  }

  case Opcode::Ok:
  case Opcode::NotFound:
  case Opcode::Error:
    break;
  }
  return respondError(Conn, std::string("unsupported opcode ") +
                                opcodeName(Request.Op));
}
