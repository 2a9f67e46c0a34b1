//===- fgbs/net/Framing.h - fgbs.cachewire.v1 frame protocol ---*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fgbs.cachewire.v1 binary frame protocol spoken between
/// core/RemoteCacheBackend and the fgbs_cached daemon.  One frame per
/// request and one per response, each carried as:
///
///   [0..8)   magic "FGBSCWV1"
///   [8..12)  u32 protocol version (this build: 1)
///   [12..16) u32 opcode
///   [16..24) u64 payload size in bytes
///   [24..28) u32 CRC-32 (IEEE) of the payload
///   [28.. )  payload (little-endian fields via support/BinaryIo)
///
/// — the same header discipline as fgbs.model.v1 snapshots and
/// fgbs.meas.v1 cache entries (magic, version, size, checksum), so a
/// frame damaged in flight is detected before its payload is parsed and
/// a non-FGBS client talking to the port is rejected on the first 8
/// bytes.
///
/// Request payloads (str = u32 length + bytes):
///   Ping        (empty)
///   Exists      str name
///   Get         str name
///   Put         str name, blob = remaining payload bytes
///   Remove      str name
///   Scan        str prefix, str suffix
///   Prune       u64 max-bytes, u64 max-age-seconds
///               [, u64 model-max-bytes, u64 model-max-age-seconds]
///               (the optional pair scopes a second budget to the
///               model/ namespace; absent means "measurement budget
///               only", which is what pre-namespace clients send)
///   ScanPrefix  str prefix
///               -> Ok u32 count, count x { str name, u64 size-bytes,
///                  u64 atime-unix-seconds } — names only, never
///                  payloads, so a registry can enumerate
///                  `model/<name>/...` cheaply.  Namespace routing:
///                  `model/...` walks the model shards, `meas/...` (and
///                  any flat prefix) walks the measurement shards, the
///                  empty prefix walks both.
///   Stats       (empty)
///               -> Ok u32 shards, shards x { u64 entries, u64 bytes },
///                  u64 hits, u64 misses
///                  [, u32 model-shards, model-shards x { u64 entries,
///                  u64 bytes }, u64 model-gets, u64 model-puts,
///                  u64 model-ref-puts, u64 scan-prefixes]
///                  (appended by namespace-aware servers; clients
///                  parse it only when bytes remain.  Builds that
///                  still served opcodes 7 and 8 sent two more u64
///                  counters after misses, so Stats needs a client and
///                  a server from the same side of that change)
///
/// Opcodes 7-13 are unassigned: a request carrying one is answered
/// with Error ("unsupported opcode") like any other unknown value.
///
/// Response opcodes: Ok (payload per request), NotFound (Get of an
/// absent name), Error (str human-readable message).  The connection
/// survives Error responses; it is closed on frame-level damage (bad
/// magic, CRC mismatch), since after those byte-stream sync is lost.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_NET_FRAMING_H
#define FGBS_NET_FRAMING_H

#include "fgbs/net/Socket.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace fgbs {
namespace net {

/// Leading bytes of every cache-wire frame.
inline constexpr char kWireMagic[8] = {'F', 'G', 'B', 'S', 'C', 'W', 'V', '1'};
/// Protocol version this build speaks.
inline constexpr std::uint32_t kWireVersion = 1;
/// Fixed frame header size preceding the payload.
inline constexpr std::size_t kWireHeaderBytes = 28;
/// Hard payload ceiling: a frame announcing more is rejected before
/// anything is allocated (a measurement-cache entry is a few hundred
/// KB; 1 GiB leaves generous headroom without letting a corrupt length
/// field OOM the server).
inline constexpr std::uint64_t kWireMaxPayloadBytes = 1ull << 30;

/// Frame opcodes.  Requests are < 100, responses >= 100.
enum class Opcode : std::uint32_t {
  Ping = 0,
  Exists = 1,
  Get = 2,
  Put = 3,
  Remove = 4,
  Scan = 5,
  Prune = 6,
  // 7-13 are unassigned.
  Stats = 14,
  ScanPrefix = 15,
  Ok = 100,
  NotFound = 101,
  Error = 102,
};

/// Stable identifier for logs and tests.
const char *opcodeName(Opcode Op);

/// Why a frame could not be read.
enum class WireError {
  None,               ///< A frame arrived intact.
  Closed,             ///< Clean EOF at a frame boundary.
  Io,                 ///< Socket error, or EOF inside a frame.
  Timeout,            ///< The deadline passed first.
  BadMagic,           ///< The peer is not speaking fgbs.cachewire.
  UnsupportedVersion, ///< Protocol version this build does not speak.
  Oversize,           ///< Announced payload exceeds kWireMaxPayloadBytes.
  ChecksumMismatch,   ///< Payload bytes do not match the stored CRC-32.
};

/// Stable identifier for an error (warnings and tests key on it).
const char *wireErrorName(WireError E);

/// One decoded frame.
struct Frame {
  Opcode Op = Opcode::Error;
  std::string Payload;
};

/// Renders a complete frame (header + payload) into bytes.  Exposed so
/// tests can corrupt specific offsets.
std::string encodeFrame(Opcode Op, std::string_view Payload);

/// Sends one frame within \p TimeoutMs.
bool writeFrame(Socket &S, Opcode Op, std::string_view Payload,
                std::uint64_t TimeoutMs);

/// Receives one frame within \p TimeoutMs, validating magic, version,
/// size, and checksum before returning it.
WireError readFrame(Socket &S, Frame &Out, std::uint64_t TimeoutMs);

} // namespace net
} // namespace fgbs

#endif // FGBS_NET_FRAMING_H
