//===- fgbs/core/RemoteCacheBackend.h - Wire-protocol client ---*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the remote measurement-cache tier: a CacheBackend
/// that speaks fgbs.cachewire.v1 (net/Framing) to an fgbs_cached
/// daemon, so a fleet of training runs shares one measurement corpus.
///
/// Failure discipline — the remote tier is an optimization, never a
/// dependency: every network failure (unreachable server, timeout,
/// damaged frame, server-side error) degrades to the miss path.
/// exists()/get() return false, put()/remove() return false, scan()
/// returns empty — the caller simulates and moves on, exactly as if
/// the entry were absent.  Each failed operation bumps
/// db.cache.remote.errors (db.cache.remote.timeouts when the deadline
/// passed) and the first failure per backend logs one warning naming
/// the address; later ones stay quiet so a dead server does not flood
/// stderr of a long run.
///
/// Transient failures are retried until MaxAttempts attempts are spent,
/// retry N on a fresh connection after a fixed N x 50 ms pause; a server
/// that answers with an Error frame is not retried (it will answer the
/// same way again).  The server closes a connection that idles for one
/// of its poll slices, so a pooled connection found readable before a
/// send is closed and replaced without spending an attempt.
///
/// lockPath() is empty, so writerLock() is the no-op lock: the server
/// provides atomicity (its directory is a LocalDirBackend with atomic
/// rename publish).  Hosts racing on one cold key may each simulate it
/// and publish identical bytes; readers see one whole entry or none.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_CORE_REMOTECACHEBACKEND_H
#define FGBS_CORE_REMOTECACHEBACKEND_H

#include "fgbs/core/CacheBackend.h"
#include "fgbs/net/Framing.h"
#include "fgbs/net/Socket.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fgbs {

/// Decoded Stats opcode response: each namespace's storage footprint
/// and the request counters.
struct RemoteCacheStats {
  std::uint64_t Entries = 0;
  std::uint64_t Bytes = 0;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  /// The model/ namespace's footprint and counters.
  std::uint64_t ModelEntries = 0;
  std::uint64_t ModelBytes = 0;
  std::uint64_t ModelGets = 0;
  std::uint64_t ModelPuts = 0;
  std::uint64_t ModelRefPuts = 0;
  std::uint64_t ScanPrefixes = 0;
};

/// Renders \p S as the stable `fgbs.cachestats.v1` JSON document that
/// `fgbs_cached --stats --json` emits (sorted keys, schema field first)
/// so dashboards scrape a schema, not human text.
std::string renderStatsJson(const RemoteCacheStats &S);

/// How a RemoteCacheBackend reaches its server.
struct RemoteCacheConfig {
  std::string Host;
  std::uint16_t Port = 0;
  /// Deadline for establishing a connection.
  std::uint64_t ConnectTimeoutMs = 2000;
  /// Deadline for one request/response round trip.
  std::uint64_t RequestTimeoutMs = 10000;
  /// Connection attempts per operation (>= 1).
  unsigned MaxAttempts = 3;
};

/// Parses "host:port" into a config (timeouts keep their defaults).
/// False when \p Spec is not of that shape.
bool parseRemoteCacheAddress(const std::string &Spec, RemoteCacheConfig &Out);

/// CacheBackend over one fgbs_cached server.  Thread-safe: operations
/// share one pooled connection under a mutex (cache traffic is a few
/// large blobs, not a request storm; benchmarks wanting parallelism
/// construct one backend per thread).
class RemoteCacheBackend final : public CacheBackend {
public:
  explicit RemoteCacheBackend(RemoteCacheConfig Config);

  const RemoteCacheConfig &config() const { return Config; }
  std::string address() const {
    return Config.Host + ":" + std::to_string(Config.Port);
  }

  /// One Ping round trip; true when the server answers.
  bool ping() const;

  bool exists(const std::string &Name) const override;
  bool get(const std::string &Name, std::string &BytesOut) const override;
  bool put(const std::string &Name, std::string_view Bytes) override;
  bool remove(const std::string &Name) override;
  /// A ScanPrefix round trip filtered by \p Suffix on this side; empty
  /// when the listing failed.
  std::vector<CacheEntry> scan(const std::string &Prefix,
                               const std::string &Suffix) const override;
  /// ScanPrefix round trip with typed degradation: Failed when the
  /// network ate the answer or the server answered Error.  Never
  /// silently empty.
  ScanPrefixResult scanPrefix(const std::string &Prefix) const override;
  /// One Ping: the registry's "is an empty/missing answer
  /// authoritative, or is the server down" probe.
  bool healthy() const override { return ping(); }
  std::string lockPath(const std::string &Name) const override;

  /// One Stats round trip; false on a network failure or a damaged
  /// reply.
  bool statsRemote(RemoteCacheStats &Out);

private:
  /// Sends \p Op and decodes the response frame.  Handles connect,
  /// retries, counters, and the one-shot warning.  False when
  /// every attempt failed; \p Response holds Ok/NotFound/Error
  /// otherwise.
  bool request(net::Opcode Op, std::string_view Payload,
               net::Frame &Response) const;
  /// An Exists or Remove round trip: the one-byte flag of an Ok reply,
  /// false on any failure.
  bool flagRequest(net::Opcode Op, const std::string &Name) const;

  RemoteCacheConfig Config;
  mutable std::mutex Mutex;
  mutable net::Socket Conn;
  mutable bool WarnedUnreachable = false;
};

} // namespace fgbs

#endif // FGBS_CORE_REMOTECACHEBACKEND_H
