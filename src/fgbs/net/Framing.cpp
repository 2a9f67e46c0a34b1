//===- fgbs/net/Framing.cpp - fgbs.cachewire.v1 frame protocol ------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/net/Framing.h"

using namespace fgbs;
using namespace fgbs::net;

namespace {

constexpr framed::Format kWireFormat = {kWireMagic, kWireVersion,
                                        "fgbs.cachewire.v1 frame"};

} // namespace

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
  std::string Out = framed::blank(Payload.size());
  Out.append(Payload);
  framed::seal(Out, kWireFormat, static_cast<std::uint32_t>(Op));
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
  framed::Header Head;
  switch (framed::readHeader(std::string_view(Header, sizeof(Header)),
                             kWireFormat, Head)) {
  case framed::Status::Ok:
    break;
  case framed::Status::BadMagic:
    return WireError::BadMagic;
  case framed::Status::UnsupportedVersion:
    return WireError::UnsupportedVersion;
  default: // A whole header was read: nothing else can fail here.
    return WireError::Io;
  }
  const std::uint64_t PayloadSize = Head.PayloadBytes;
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
  if (!framed::checksumMatches(Head, Payload))
    return WireError::ChecksumMismatch;

  Out.Op = static_cast<Opcode>(Head.Minor); // The wire's minor is its opcode.
  Out.Payload = std::move(Payload);
  return WireError::None;
}
