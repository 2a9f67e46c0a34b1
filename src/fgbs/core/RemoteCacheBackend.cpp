//===- fgbs/core/RemoteCacheBackend.cpp - Wire-protocol client ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/RemoteCacheBackend.h"

#include "fgbs/obs/Json.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/BinaryIo.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace fgbs;
using namespace fgbs::binio;
using namespace fgbs::net;

namespace {

/// Retry N of an operation pauses N times this long.
constexpr std::uint64_t kRetryPauseMs = 50;

} // namespace

bool fgbs::parseRemoteCacheAddress(const std::string &Spec,
                                   RemoteCacheConfig &Out) {
  return parseHostPort(Spec, Out.Host, Out.Port);
}

RemoteCacheBackend::RemoteCacheBackend(RemoteCacheConfig Config)
    : Config(std::move(Config)) {
  if (this->Config.MaxAttempts == 0)
    this->Config.MaxAttempts = 1;
}

bool RemoteCacheBackend::request(Opcode Op, std::string_view Payload,
                                 Frame &Response) const {
  std::lock_guard<std::mutex> Guard(Mutex);
  bool SawTimeout = false;
  std::string LastError;
  for (unsigned Attempt = 0; Attempt < Config.MaxAttempts; ++Attempt) {
    if (Attempt > 0) {
      Conn.close();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Attempt * kRetryPauseMs));
    }
    // The server never sends first, so a pooled connection that is
    // readable before a send is one the server closed (it closes idle
    // ones): reconnect without spending an attempt.
    if (Conn.valid() && Conn.waitReadable(0))
      Conn.close();
    if (!Conn.valid()) {
      std::string ConnectError;
      Conn = Socket::connectTo(Config.Host, Config.Port,
                               Config.ConnectTimeoutMs, &ConnectError);
      if (!Conn.valid()) {
        LastError = ConnectError;
        continue;
      }
    }
    if (!writeFrame(Conn, Op, Payload, Config.RequestTimeoutMs)) {
      LastError = "send failed";
      Conn.close();
      continue;
    }
    WireError E = readFrame(Conn, Response, Config.RequestTimeoutMs);
    if (E == WireError::None)
      return true;
    SawTimeout = SawTimeout || E == WireError::Timeout;
    LastError = std::string("response: ") + wireErrorName(E);
    Conn.close();
  }
  FGBS_COUNTER_ADD("db.cache.remote.errors", 1);
  if (SawTimeout)
    FGBS_COUNTER_ADD("db.cache.remote.timeouts", 1);
  if (!WarnedUnreachable) {
    WarnedUnreachable = true;
    std::fprintf(stderr,
                 "fgbs: warning: remote measurement cache %s unavailable "
                 "(%s; op %s); continuing without it\n",
                 address().c_str(), LastError.c_str(), opcodeName(Op));
  }
  return false;
}

bool RemoteCacheBackend::ping() const {
  Frame Response;
  return request(Opcode::Ping, {}, Response) && Response.Op == Opcode::Ok;
}

bool RemoteCacheBackend::flagRequest(Opcode Op, const std::string &Name) const {
  std::string Payload;
  putStr(Payload, Name);
  Frame Response;
  if (!request(Op, Payload, Response) || Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  bool Flag = In.u8() != 0;
  return !In.overrun() && Flag;
}

bool RemoteCacheBackend::exists(const std::string &Name) const {
  return flagRequest(Opcode::Exists, Name);
}

bool RemoteCacheBackend::get(const std::string &Name,
                             std::string &BytesOut) const {
  std::string Payload;
  putStr(Payload, Name);
  Frame Response;
  if (!request(Opcode::Get, Payload, Response) || Response.Op != Opcode::Ok)
    return false;
  BytesOut = std::move(Response.Payload);
  return true;
}

bool RemoteCacheBackend::put(const std::string &Name, std::string_view Bytes) {
  std::string Payload;
  putStr(Payload, Name);
  Payload.append(Bytes.data(), Bytes.size());
  Frame Response;
  return request(Opcode::Put, Payload, Response) && Response.Op == Opcode::Ok;
}

bool RemoteCacheBackend::remove(const std::string &Name) {
  return flagRequest(Opcode::Remove, Name);
}

std::vector<CacheEntry>
RemoteCacheBackend::scan(const std::string &Prefix,
                         const std::string &Suffix) const {
  ScanPrefixResult R = scanPrefix(Prefix);
  std::erase_if(R.Entries, [&](const CacheEntry &E) {
    return !std::string_view(E.Name).ends_with(Suffix);
  });
  return std::move(R.Entries);
}

ScanPrefixResult
RemoteCacheBackend::scanPrefix(const std::string &Prefix) const {
  ScanPrefixResult R;
  R.Outcome = ScanPrefixOutcome::Failed;
  std::string Payload;
  putStr(Payload, Prefix);
  Frame Response;
  if (!request(Opcode::ScanPrefix, Payload, Response)) {
    R.Message = "scan_prefix: " + address() + " unreachable";
    return R;
  }
  ByteReader In(Response.Payload);
  if (Response.Op == Opcode::Error) {
    // A server that refuses the request has not said that nothing
    // matched.
    R.Message = "scan_prefix: " + In.str();
    return R;
  }
  if (Response.Op != Opcode::Ok) {
    R.Message = "scan_prefix: unexpected response";
    return R;
  }
  std::uint32_t Count = In.u32();
  R.Entries.reserve(std::min<std::uint32_t>(Count, 4096));
  for (std::uint32_t I = 0; I < Count && !In.overrun(); ++I) {
    CacheEntry E;
    E.Name = In.str();
    E.SizeBytes = In.u64();
    E.AccessUnixSeconds = static_cast<std::int64_t>(In.u64());
    R.Entries.push_back(std::move(E));
  }
  if (In.overrun() || R.Entries.size() != Count) {
    R.Entries.clear();
    R.Message = "scan_prefix: damaged listing";
    return R;
  }
  R.Outcome = ScanPrefixOutcome::Ok;
  return R;
}

std::string RemoteCacheBackend::lockPath(const std::string &) const {
  // The server owns atomicity and lifecycle; there is no local lock
  // file to point at, so writerLock() is the no-op lock.
  return {};
}

bool RemoteCacheBackend::statsRemote(RemoteCacheStats &Out) {
  Frame Response;
  if (!request(Opcode::Stats, {}, Response) || Response.Op != Opcode::Ok)
    return false;
  ByteReader In(Response.Payload);
  RemoteCacheStats S;
  for (std::uint64_t *Field :
       {&S.Entries, &S.Bytes, &S.Hits, &S.Misses, &S.ModelEntries,
        &S.ModelBytes, &S.ModelGets, &S.ModelPuts, &S.ModelRefPuts,
        &S.ScanPrefixes})
    *Field = In.u64();
  if (In.overrun() || !In.atEnd())
    return false;
  Out = S;
  return true;
}

std::string fgbs::renderStatsJson(const RemoteCacheStats &S) {
  using obs::JsonValue;
  auto Count = [](std::uint64_t N) {
    return JsonValue(static_cast<double>(N));
  };

  JsonValue Doc = JsonValue::object();
  Doc.set("schema", JsonValue("fgbs.cachestats.v1"));

  JsonValue Meas = JsonValue::object();
  Meas.set("entries", Count(S.Entries));
  Meas.set("bytes", Count(S.Bytes));
  Meas.set("hits", Count(S.Hits));
  Meas.set("misses", Count(S.Misses));
  Doc.set("meas", std::move(Meas));

  JsonValue Model = JsonValue::object();
  Model.set("entries", Count(S.ModelEntries));
  Model.set("bytes", Count(S.ModelBytes));
  Model.set("gets", Count(S.ModelGets));
  Model.set("puts", Count(S.ModelPuts));
  Model.set("ref_puts", Count(S.ModelRefPuts));
  Model.set("scan_prefixes", Count(S.ScanPrefixes));
  Doc.set("model", std::move(Model));
  return obs::writeJson(Doc, 2) + "\n";
}
