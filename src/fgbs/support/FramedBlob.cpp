//===- fgbs/support/FramedBlob.cpp - The framed-blob header ---------------===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fgbs/support/FramedBlob.h"

#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Crc32.h"

#include <cassert>
#include <cstring>

using namespace fgbs;
using namespace fgbs::framed;

namespace {

constexpr std::size_t kMagicBytes = 8;

} // namespace

void framed::seal(std::string &Blob, const Format &F, std::uint32_t Minor) {
  assert(Blob.size() >= kHeaderBytes && "seal() needs the header gap");
  const std::string_view Payload = std::string_view(Blob).substr(kHeaderBytes);
  char *P = Blob.data();
  std::memcpy(P, F.Magic, kMagicBytes);
  binio::detail::storeLe32(P + 8, F.Version);
  binio::detail::storeLe32(P + 12, Minor);
  binio::detail::storeLe64(P + 16, Payload.size());
  binio::detail::storeLe32(P + 24, crc32(Payload));
}

Status framed::readHeader(std::string_view Bytes, const Format &F,
                          Header &Out) {
  // The magic wins over the length: a short file of another format is
  // reported as that, not as a truncated blob of this one.
  if (Bytes.size() >= kMagicBytes &&
      std::memcmp(Bytes.data(), F.Magic, kMagicBytes) != 0)
    return Status::BadMagic;
  if (Bytes.size() < kHeaderBytes)
    return Status::ShortHeader;
  const char *P = Bytes.data();
  Out.Version = binio::detail::loadLe32(P + 8);
  Out.Minor = binio::detail::loadLe32(P + 12);
  Out.PayloadBytes = binio::detail::loadLe64(P + 16);
  Out.Crc = binio::detail::loadLe32(P + 24);
  return Out.Version == F.Version ? Status::Ok : Status::UnsupportedVersion;
}

bool framed::checksumMatches(const Header &H, std::string_view Payload) {
  return crc32(Payload) == H.Crc;
}

Opened framed::open(std::string_view Bytes, const Format &F) {
  Opened Blob;
  Blob.State = readHeader(Bytes, F, Blob.Head);
  if (Blob.State != Status::Ok)
    return Blob;
  const std::string_view Payload = Bytes.substr(kHeaderBytes);
  if (Payload.size() < Blob.Head.PayloadBytes)
    Blob.State = Status::ShortPayload;
  else if (Payload.size() > Blob.Head.PayloadBytes)
    Blob.State = Status::TrailingBytes;
  else if (!checksumMatches(Blob.Head, Payload))
    Blob.State = Status::ChecksumMismatch;
  else
    Blob.Payload = Payload;
  return Blob;
}

std::string framed::describe(const Opened &Blob, const Format &F) {
  switch (Blob.State) {
  case Status::Ok:
    break;
  case Status::BadMagic:
    return std::string("not an ") + F.Name;
  case Status::ShortHeader:
    return std::string("shorter than the ") + F.Name + " header";
  case Status::UnsupportedVersion:
    return std::string(F.Name) + " major version " +
           std::to_string(Blob.Head.Version) + " (this reader speaks " +
           std::to_string(F.Version) + ")";
  case Status::ShortPayload:
    return "payload shorter than the header announces";
  case Status::TrailingBytes:
    return "trailing bytes after the announced payload";
  case Status::ChecksumMismatch:
    return "payload checksum mismatch: the bytes do not match the stored "
           "CRC-32";
  }
  return "ok";
}
