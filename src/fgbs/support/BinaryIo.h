//===- fgbs/support/BinaryIo.h - Little-endian binary encoding -*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian primitive encoding shared by every versioned binary
/// format in the tree (fgbs.model.v1 snapshots, fgbs.meas.v1 measurement
/// caches, fgbs.ref.v1 refs, wire frames): appenders onto a std::string
/// payload and a bounds-checked decoder over a byte view.  Each u32, u64
/// and f64 is assembled from its bytes with shifts, so the encoding does
/// not depend on the host's byte order or alignment; compilers fold the
/// shifts into one load or store per word.
///
/// ByteReader follows the "check once per structural unit" discipline:
/// every read either succeeds or sets the overrun flag and returns a
/// zero value, so parsers validate with one overrun() call per block
/// instead of one per field.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SUPPORT_BINARYIO_H
#define FGBS_SUPPORT_BINARYIO_H

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fgbs {
namespace binio {

namespace detail {

/// Stores \p V at \p P least significant byte first (compilers merge the
/// four byte stores into one store on little-endian targets).
inline void storeLe32(char *P, std::uint32_t V) {
  P[0] = static_cast<char>(V);
  P[1] = static_cast<char>(V >> 8);
  P[2] = static_cast<char>(V >> 16);
  P[3] = static_cast<char>(V >> 24);
}

inline void storeLe64(char *P, std::uint64_t V) {
  storeLe32(P, static_cast<std::uint32_t>(V));
  storeLe32(P + 4, static_cast<std::uint32_t>(V >> 32));
}

/// The little-endian word at \p P, assembled byte by byte so the result
/// depends on neither the host's byte order nor the alignment (compilers
/// fold it into one load on little-endian targets).
inline std::uint32_t loadLe32(const char *P) {
  const auto *U = reinterpret_cast<const unsigned char *>(P);
  return static_cast<std::uint32_t>(U[0]) |
         static_cast<std::uint32_t>(U[1]) << 8 |
         static_cast<std::uint32_t>(U[2]) << 16 |
         static_cast<std::uint32_t>(U[3]) << 24;
}

inline std::uint64_t loadLe64(const char *P) {
  return loadLe32(P) | static_cast<std::uint64_t>(loadLe32(P + 4)) << 32;
}

} // namespace detail

inline void putU32(std::string &Out, std::uint32_t V) {
  char Bytes[4];
  detail::storeLe32(Bytes, V);
  Out.append(Bytes, 4);
}

inline void putU64(std::string &Out, std::uint64_t V) {
  char Bytes[8];
  detail::storeLe64(Bytes, V);
  Out.append(Bytes, 8);
}

inline void putF64(std::string &Out, double V) {
  putU64(Out, std::bit_cast<std::uint64_t>(V));
}

inline void putStr(std::string &Out, const std::string &S) {
  putU32(Out, static_cast<std::uint32_t>(S.size()));
  Out.append(S);
}

/// Bounds-checked little-endian decoder over a byte range.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes) : Bytes(Bytes) {}

  bool overrun() const { return Overrun; }
  bool atEnd() const { return Cursor == Bytes.size(); }
  std::size_t remaining() const { return Bytes.size() - Cursor; }

  std::uint8_t u8() {
    if (!take(1))
      return 0;
    return static_cast<std::uint8_t>(Bytes[Cursor - 1]);
  }

  std::uint32_t u32() { return take(4) ? detail::loadLe32(last(4)) : 0; }

  std::uint64_t u64() { return take(8) ? detail::loadLe64(last(8)) : 0; }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    std::uint32_t Len = u32();
    if (!take(Len))
      return {};
    return std::string(Bytes.substr(Cursor - Len, Len));
  }

  /// Reads \p Count doubles.  The remaining-bytes guard rejects absurd
  /// counts before anything is allocated.
  std::vector<double> f64Vector(std::size_t Count) {
    if (Count > remaining() / 8) {
      Overrun = true;
      return {};
    }
    std::vector<double> V(Count);
    if (!take(8 * Count))
      return V;
    const char *Block = last(8 * Count);
    for (std::size_t I = 0; I < Count; ++I)
      V[I] = std::bit_cast<double>(detail::loadLe64(Block + 8 * I));
    return V;
  }

private:
  /// The \p N bytes the last successful take() stepped over.
  const char *last(std::size_t N) const { return Bytes.data() + Cursor - N; }

  bool take(std::size_t N) {
    if (Overrun || N > remaining()) {
      Overrun = true;
      return false;
    }
    Cursor += N;
    return true;
  }

  std::string_view Bytes;
  std::size_t Cursor = 0;
  bool Overrun = false;
};

} // namespace binio
} // namespace fgbs

#endif // FGBS_SUPPORT_BINARYIO_H
