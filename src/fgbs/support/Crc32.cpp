//===- fgbs/support/Crc32.cpp - CRC-32 checksums --------------------------===//

#include "fgbs/support/Crc32.h"

#include <array>

using namespace fgbs;

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slice-by-8 tables for the reflected IEEE polynomial.  Table 0 is the
/// classic bytewise table; table K maps a byte to the CRC of that byte
/// followed by K zero bytes, so one lookup per table folds eight input
/// bytes at once.  Built at compile time.
constexpr std::array<Table, 8> buildTables() {
  std::array<Table, 8> T{};
  for (std::uint32_t I = 0; I < 256; ++I) {
    std::uint32_t C = I;
    for (int Bit = 0; Bit < 8; ++Bit)
      C = (C >> 1) ^ ((C & 1u) ? 0xedb88320u : 0u);
    T[0][I] = C;
  }
  for (std::size_t K = 1; K < 8; ++K)
    for (std::uint32_t I = 0; I < 256; ++I)
      T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xffu];
  return T;
}

constexpr std::array<Table, 8> kTables = buildTables();

/// Four bytes as a little-endian word, assembled byte by byte so the
/// result depends on neither the host's byte order nor the alignment
/// (compilers fold it into one load on little-endian targets).
inline std::uint32_t loadLe32(const unsigned char *P) {
  return static_cast<std::uint32_t>(P[0]) |
         static_cast<std::uint32_t>(P[1]) << 8 |
         static_cast<std::uint32_t>(P[2]) << 16 |
         static_cast<std::uint32_t>(P[3]) << 24;
}

} // namespace

std::uint32_t fgbs::crc32Update(std::uint32_t Crc, const void *Data,
                                std::size_t Size) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  const std::array<Table, 8> &T = kTables;
  for (; Size >= 8; Bytes += 8, Size -= 8) {
    const std::uint32_t Lo = Crc ^ loadLe32(Bytes);
    const std::uint32_t Hi = loadLe32(Bytes + 4);
    Crc = T[7][Lo & 0xffu] ^ T[6][(Lo >> 8) & 0xffu] ^
          T[5][(Lo >> 16) & 0xffu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xffu] ^
          T[2][(Hi >> 8) & 0xffu] ^ T[1][(Hi >> 16) & 0xffu] ^ T[0][Hi >> 24];
  }
  for (; Size > 0; ++Bytes, --Size)
    Crc = T[0][(Crc ^ *Bytes) & 0xffu] ^ (Crc >> 8);
  return Crc;
}
