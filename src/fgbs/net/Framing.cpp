//===- fgbs/net/Framing.cpp - fgbs.cachewire.v1 frame protocol ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/net/Framing.h"

#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Crc32.h"

#include <cstring>

using namespace fgbs;
using namespace fgbs::net;

const char *fgbs::net::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Ping:
    return "ping";
  case Opcode::Exists:
    return "exists";
  case Opcode::Get:
    return "get";
  case Opcode::Put:
    return "put";
  case Opcode::Remove:
    return "remove";
  case Opcode::Scan:
    return "scan";
  case Opcode::Prune:
    return "prune";
  case Opcode::Stats:
    return "stats";
  case Opcode::ScanPrefix:
    return "scan_prefix";
  case Opcode::Ok:
    return "ok";
  case Opcode::NotFound:
    return "not_found";
  case Opcode::Error:
    return "error";
  }
  return "unknown";
}

const char *fgbs::net::wireErrorName(WireError E) {
  switch (E) {
  case WireError::None:
    return "none";
  case WireError::Closed:
    return "closed";
  case WireError::Io:
    return "io";
  case WireError::Timeout:
    return "timeout";
  case WireError::BadMagic:
    return "bad_magic";
  case WireError::UnsupportedVersion:
    return "unsupported_version";
  case WireError::Oversize:
    return "oversize";
  case WireError::ChecksumMismatch:
    return "checksum_mismatch";
  }
  return "unknown";
}

std::string fgbs::net::encodeFrame(Opcode Op, std::string_view Payload) {
  std::string Out;
  Out.reserve(kWireHeaderBytes + Payload.size());
  Out.append(kWireMagic, sizeof(kWireMagic));
  binio::putU32(Out, kWireVersion);
  binio::putU32(Out, static_cast<std::uint32_t>(Op));
  binio::putU64(Out, Payload.size());
  binio::putU32(Out, crc32(Payload));
  Out.append(Payload);
  return Out;
}

bool fgbs::net::writeFrame(Socket &S, Opcode Op, std::string_view Payload,
                           std::uint64_t TimeoutMs) {
  std::string Bytes = encodeFrame(Op, Payload);
  return S.sendAll(Bytes.data(), Bytes.size(), TimeoutMs);
}

WireError fgbs::net::readFrame(Socket &S, Frame &Out,
                               std::uint64_t TimeoutMs) {
  char Header[kWireHeaderBytes];
  switch (S.recvAll(Header, sizeof(Header), TimeoutMs)) {
  case RecvStatus::Ok:
    break;
  case RecvStatus::Eof:
    return WireError::Closed;
  case RecvStatus::Timeout:
    return WireError::Timeout;
  case RecvStatus::Error:
    return WireError::Io;
  }
  if (std::memcmp(Header, kWireMagic, sizeof(kWireMagic)) != 0)
    return WireError::BadMagic;

  binio::ByteReader In(std::string_view(Header + sizeof(kWireMagic),
                                        sizeof(Header) -
                                            sizeof(kWireMagic)));
  std::uint32_t Version = In.u32();
  std::uint32_t OpRaw = In.u32();
  std::uint64_t PayloadSize = In.u64();
  std::uint32_t Crc = In.u32();
  if (Version != kWireVersion)
    return WireError::UnsupportedVersion;
  if (PayloadSize > kWireMaxPayloadBytes)
    return WireError::Oversize;

  std::string Payload(PayloadSize, '\0');
  if (PayloadSize > 0) {
    switch (S.recvAll(Payload.data(), Payload.size(), TimeoutMs)) {
    case RecvStatus::Ok:
      break;
    case RecvStatus::Timeout:
      return WireError::Timeout;
    case RecvStatus::Eof:
    case RecvStatus::Error:
      return WireError::Io;
    }
  }
  if (crc32(Payload) != Crc)
    return WireError::ChecksumMismatch;

  Out.Op = static_cast<Opcode>(OpRaw);
  Out.Payload = std::move(Payload);
  return WireError::None;
}
