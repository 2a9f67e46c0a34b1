//===- fgbs/support/FramedBlob.h - The framed-blob header -------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The header every versioned binary format in the tree puts in front of
/// its payload: fgbs.model.v1 snapshots, fgbs.meas.v1 measurement
/// entries, fgbs.ref.v1 refs and fgbs.cachewire.v1 frames.
///
///   [0..8)   magic (one per format)
///   [8..12)  u32 major version
///   [12..16) u32 minor version (a wire frame carries its opcode here)
///   [16..24) u64 payload size in bytes
///   [24..28) u32 CRC-32 (IEEE) of the payload
///   [28.. )  payload
///
/// All integers are little-endian (support/BinaryIo).  A writer appends
/// its payload after a header-sized gap and seals the blob, which fills
/// the gap in from the bytes actually written.  A reader checks, in this
/// order, the magic (when its 8 bytes are there), the header's length,
/// the major version, the announced payload size against the bytes
/// present and the CRC, and hands back a view of the payload without
/// copying it.  Each format maps the status onto its own typed errors
/// and keeps its own rule for payload fields it does not know.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SUPPORT_FRAMEDBLOB_H
#define FGBS_SUPPORT_FRAMEDBLOB_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fgbs {
namespace framed {

/// Fixed header size preceding every payload.
inline constexpr std::size_t kHeaderBytes = 28;

/// What one format writes into, and expects in, a header.
struct Format {
  /// The 8 leading bytes.
  const char *Magic;
  /// The major version this build reads and writes.
  std::uint32_t Version;
  /// The format as messages name it ("fgbs.model.v1 snapshot").
  const char *Name;
};

/// The header fields after the magic.
struct Header {
  std::uint32_t Version = 0;
  /// Minor version, or a wire frame's opcode.
  std::uint32_t Minor = 0;
  std::uint64_t PayloadBytes = 0;
  std::uint32_t Crc = 0;
};

/// Why a blob did not open, in the order the checks run.
enum class Status {
  Ok,
  BadMagic,           ///< The leading 8 bytes are not the format's magic.
  ShortHeader,        ///< Fewer bytes than the header.
  UnsupportedVersion, ///< A major version this build does not speak.
  ShortPayload,       ///< Fewer payload bytes than the header announces.
  TrailingBytes,      ///< More payload bytes than the header announces.
  ChecksumMismatch,   ///< The payload does not match the stored CRC-32.
};

/// An opened blob: its status, its header and (when Ok) a view of its
/// payload inside the bytes it was opened from.
struct Opened {
  Status State = Status::Ok;
  Header Head;
  std::string_view Payload;

  explicit operator bool() const { return State == Status::Ok; }
};

/// A buffer holding only the header-sized gap, with room reserved for
/// \p PayloadBytes more: append the payload to it, then seal() it.
inline std::string blank(std::size_t PayloadBytes = 0) {
  std::string Blob;
  Blob.reserve(kHeaderBytes + PayloadBytes);
  Blob.resize(kHeaderBytes);
  return Blob;
}

/// Fills the gap at the front of \p Blob with \p F's header for the
/// payload after it.
void seal(std::string &Blob, const Format &F, std::uint32_t Minor);

/// Checks the magic, the header's length and the major version of the
/// header at the front of \p Bytes and decodes it into \p Out.
Status readHeader(std::string_view Bytes, const Format &F, Header &Out);

/// Whether \p Payload matches the CRC-32 stored in \p H.
bool checksumMatches(const Header &H, std::string_view Payload);

/// Opens a whole blob: readHeader(), then the payload size, then the
/// CRC (one pass over the payload).
Opened open(std::string_view Bytes, const Format &F);

/// What failed, for a blob that did not open.
std::string describe(const Opened &Blob, const Format &F);

/// Maps a status onto a format's typed error enum, which names these
/// cases None, BadMagic, Truncated, UnsupportedVersion, Malformed
/// (trailing bytes) and ChecksumMismatch.
template <typename ErrorT> ErrorT typedError(Status S) {
  switch (S) {
  case Status::Ok:
    return ErrorT::None;
  case Status::BadMagic:
    return ErrorT::BadMagic;
  case Status::ShortHeader:
  case Status::ShortPayload:
    return ErrorT::Truncated;
  case Status::UnsupportedVersion:
    return ErrorT::UnsupportedVersion;
  case Status::TrailingBytes:
    return ErrorT::Malformed;
  case Status::ChecksumMismatch:
    return ErrorT::ChecksumMismatch;
  }
  return ErrorT::Malformed;
}

} // namespace framed
} // namespace fgbs

#endif // FGBS_SUPPORT_FRAMEDBLOB_H
