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
/// request and one per response, each a support/FramedBlob: the 28-byte
/// header (magic "FGBSCWV1", u32 protocol version 1, u32 opcode in the
/// minor-version field, u64 payload size, CRC-32 of the payload), then
/// the payload (little-endian fields via support/BinaryIo).  A frame
/// damaged in flight is detected before its payload is parsed, and a
/// non-FGBS client talking to the port is rejected on the first 8 bytes.
///
/// Request payloads (str = u32 length + bytes):
///   Ping        (empty) -> Ok str "fgbs.cachewire.v1"
///   Exists      str name
///   Get         str name
///   Put         str name, blob = remaining payload bytes
///   Remove      str name
///   Stats       (empty)
///               -> Ok u64 entries, u64 bytes, u64 hits, u64 misses,
///                  u64 model-entries, u64 model-bytes, u64 model-gets,
///                  u64 model-puts, u64 model-ref-puts, u64 scan-prefixes
///   ScanPrefix  str prefix
///               -> Ok u32 count, count x { str name, u64 size-bytes,
///                  u64 atime-unix-seconds } — names only, never
///                  payloads, so a registry can enumerate
///                  `model/<name>/...` cheaply.  One scan of the
///                  server's directory: every entry of either
///                  namespace whose name starts with the prefix.
///
/// Opcodes 5-13 are unassigned: a request carrying one is answered
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
#include "fgbs/support/FramedBlob.h"

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
inline constexpr std::size_t kWireHeaderBytes = framed::kHeaderBytes;
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
  // 5-13 are unassigned.
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
