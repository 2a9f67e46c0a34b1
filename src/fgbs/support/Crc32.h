//===- fgbs/support/Crc32.h - CRC-32 checksums -----------------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used
/// to checksum model-snapshot payloads.  Slice-by-8 table-driven (eight
/// bytes per step, any alignment and byte order), incremental: feed
/// chunks through crc32Update() starting from crc32Init().
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SUPPORT_CRC32_H
#define FGBS_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fgbs {

/// Initial running value for an incremental CRC-32.
inline constexpr std::uint32_t crc32Init() { return 0xffffffffu; }

/// Folds \p Size bytes at \p Data into the running value \p Crc.
std::uint32_t crc32Update(std::uint32_t Crc, const void *Data,
                          std::size_t Size);

/// Finalizes a running value into the checksum.
inline constexpr std::uint32_t crc32Final(std::uint32_t Crc) {
  return Crc ^ 0xffffffffu;
}

/// One-shot checksum of a byte range.
inline std::uint32_t crc32(std::string_view Bytes) {
  return crc32Final(crc32Update(crc32Init(), Bytes.data(), Bytes.size()));
}

} // namespace fgbs

#endif // FGBS_SUPPORT_CRC32_H
