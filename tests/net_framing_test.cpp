//===- tests/net_framing_test.cpp - fgbs.cachewire.v1 frames --------------===//
//
// The wire layer under the remote measurement cache: frame encoding,
// header validation (magic, version, size ceiling, CRC), socket
// deadlines, and the host:port parser shared by --cache-remote and
// FGBS_MEAS_CACHE_REMOTE.
//
//===----------------------------------------------------------------------===//

#include "fgbs/net/Framing.h"
#include "fgbs/net/Socket.h"
#include "fgbs/support/BinaryIo.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include <sys/socket.h>

using namespace fgbs;
using namespace fgbs::net;

namespace {

/// A connected pair of Sockets over socketpair(2) — the frame layer is
/// transport-agnostic, so AF_UNIX is as good as TCP and needs no port.
struct SocketPair {
  Socket A, B;
  SocketPair() {
    int Fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Socket(Fds[0]);
    B = Socket(Fds[1]);
  }
};

/// Pushes raw bytes through a pair and reads one frame back.
WireError roundTripRaw(const std::string &Bytes, Frame &Out,
                       bool CloseAfter = true) {
  SocketPair Pair;
  EXPECT_TRUE(Pair.A.sendAll(Bytes.data(), Bytes.size(), 1000));
  if (CloseAfter)
    Pair.A.close(); // So truncation surfaces as Io, not Timeout.
  return readFrame(Pair.B, Out, 1000);
}

TEST(Framing, EncodeLayout) {
  const std::string Payload = "payload bytes";
  std::string Bytes = encodeFrame(Opcode::Put, Payload);
  ASSERT_EQ(Bytes.size(), kWireHeaderBytes + Payload.size());
  EXPECT_EQ(Bytes.substr(0, 8), "FGBSCWV1");
  binio::ByteReader In(std::string_view(Bytes).substr(8));
  EXPECT_EQ(In.u32(), kWireVersion);
  EXPECT_EQ(In.u32(), static_cast<std::uint32_t>(Opcode::Put));
  EXPECT_EQ(In.u64(), Payload.size());
}

std::string hexOf(std::string_view Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Hex;
  for (char C : Bytes) {
    const auto U = static_cast<unsigned char>(C);
    Hex += Digits[U >> 4];
    Hex += Digits[U & 15];
  }
  return Hex;
}

TEST(Framing, GoldenBytes) {
  // Every byte of three frames the shipped tools exchange: magic,
  // version 1, opcode, payload size, CRC-32, then the payload.
  EXPECT_EQ(hexOf(encodeFrame(Opcode::Ping, {})),
            "46474253435756310100000000000000000000000000000000000000");

  std::string Put;
  binio::putStr(Put, "fgbs-meas-0123456789abcdef.v1");
  Put += "entry bytes";
  EXPECT_EQ(hexOf(encodeFrame(Opcode::Put, Put)),
            "464742534357563101000000030000002c00000000000000414115231d000000"
            "666762732d6d6561732d303132333435363738396162636465662e7631656e74"
            "7279206279746573");

  std::string Error;
  binio::putStr(Error, "unsupported opcode unknown");
  EXPECT_EQ(hexOf(encodeFrame(Opcode::Error, Error)),
            "464742534357563101000000660000001e000000000000003206f8751a000000"
            "756e737570706f72746564206f70636f646520756e6b6e6f776e");
}

TEST(Framing, RoundTrip) {
  Frame Out;
  std::string Payload(4096, '\0');
  for (std::size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<char>(I % 256);
  ASSERT_EQ(roundTripRaw(encodeFrame(Opcode::Get, Payload), Out),
            WireError::None);
  EXPECT_EQ(Out.Op, Opcode::Get);
  EXPECT_EQ(Out.Payload, Payload);
}

TEST(Framing, EmptyPayloadRoundTrip) {
  Frame Out;
  ASSERT_EQ(roundTripRaw(encodeFrame(Opcode::Ping, {}), Out),
            WireError::None);
  EXPECT_EQ(Out.Op, Opcode::Ping);
  EXPECT_TRUE(Out.Payload.empty());
}

TEST(Framing, BadMagicRejected) {
  std::string Bytes = encodeFrame(Opcode::Ping, "x");
  Bytes[0] = 'X';
  Frame Out;
  EXPECT_EQ(roundTripRaw(Bytes, Out), WireError::BadMagic);
}

TEST(Framing, UnsupportedVersionRejected) {
  std::string Bytes = encodeFrame(Opcode::Ping, "x");
  Bytes[8] = static_cast<char>(kWireVersion + 1); // Version field, LE.
  Frame Out;
  EXPECT_EQ(roundTripRaw(Bytes, Out), WireError::UnsupportedVersion);
}

TEST(Framing, OversizeRejectedBeforeAllocation) {
  std::string Bytes = encodeFrame(Opcode::Ping, "x");
  // Announce an absurd payload size (bytes [16..24), little-endian).
  for (int I = 0; I < 8; ++I)
    Bytes[16 + I] = static_cast<char>(0xff);
  Frame Out;
  EXPECT_EQ(roundTripRaw(Bytes, Out), WireError::Oversize);
}

TEST(Framing, ChecksumMismatchDetected) {
  std::string Bytes = encodeFrame(Opcode::Put, "some payload");
  Bytes.back() ^= 0x01; // Flip one payload bit; the CRC must catch it.
  Frame Out;
  EXPECT_EQ(roundTripRaw(Bytes, Out), WireError::ChecksumMismatch);
}

TEST(Framing, TruncatedPayloadIsIo) {
  std::string Bytes = encodeFrame(Opcode::Put, "some payload");
  Bytes.resize(Bytes.size() - 4); // Header promises more than arrives.
  Frame Out;
  EXPECT_EQ(roundTripRaw(Bytes, Out), WireError::Io);
}

TEST(Framing, TruncatedHeaderIsIo) {
  std::string Bytes = encodeFrame(Opcode::Put, "payload");
  Bytes.resize(10); // Mid-header EOF.
  Frame Out;
  EXPECT_EQ(roundTripRaw(Bytes, Out), WireError::Io);
}

TEST(Framing, CleanCloseIsClosed) {
  Frame Out;
  EXPECT_EQ(roundTripRaw({}, Out), WireError::Closed);
}

TEST(Framing, NoBytesIsTimeout) {
  SocketPair Pair;
  Frame Out;
  EXPECT_EQ(readFrame(Pair.B, Out, 50), WireError::Timeout);
}

TEST(Framing, WriteFrameReadFrameAcrossThreads) {
  SocketPair Pair;
  const std::string Payload(1u << 16, 'z');
  std::thread Writer([&] {
    EXPECT_TRUE(writeFrame(Pair.A, Opcode::Put, Payload, 5000));
  });
  Frame Out;
  EXPECT_EQ(readFrame(Pair.B, Out, 5000), WireError::None);
  Writer.join();
  EXPECT_EQ(Out.Op, Opcode::Put);
  EXPECT_EQ(Out.Payload, Payload);
}

TEST(Framing, NamesAreStable) {
  EXPECT_STREQ(opcodeName(Opcode::Ping), "ping");
  EXPECT_STREQ(opcodeName(Opcode::ScanPrefix), "scan_prefix");
  // 5 and 6 were Scan and Prune; like 7-13 they are unassigned.
  for (std::uint32_t Raw : {5u, 6u, 7u})
    EXPECT_STREQ(opcodeName(static_cast<Opcode>(Raw)), "unknown") << Raw;
  EXPECT_STREQ(opcodeName(Opcode::Error), "error");
  EXPECT_STREQ(wireErrorName(WireError::ChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(wireErrorName(WireError::BadMagic), "bad_magic");
}

TEST(Socket, ParseHostPort) {
  std::string Host;
  std::uint16_t Port = 0;
  EXPECT_TRUE(parseHostPort("127.0.0.1:9000", Host, Port));
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 9000);
  EXPECT_TRUE(parseHostPort("cachehost:1", Host, Port));
  EXPECT_EQ(Host, "cachehost");
  EXPECT_EQ(Port, 1);
  EXPECT_FALSE(parseHostPort("no-port", Host, Port));
  EXPECT_FALSE(parseHostPort("host:", Host, Port));
  EXPECT_FALSE(parseHostPort(":9000", Host, Port));
  EXPECT_FALSE(parseHostPort("host:notaport", Host, Port));
  EXPECT_FALSE(parseHostPort("host:70000", Host, Port));
  EXPECT_FALSE(parseHostPort("host:0", Host, Port));
}

TEST(Socket, ConnectRefusedFailsFast) {
  std::string Error;
  Socket S = Socket::connectTo("127.0.0.1", 1, 500, &Error);
  EXPECT_FALSE(S.valid());
  EXPECT_FALSE(Error.empty());
}

TEST(Socket, ListenerHandsOutEphemeralPort) {
  Listener L;
  std::string Error;
  ASSERT_TRUE(L.listenOn("127.0.0.1", 0, 4, &Error)) << Error;
  EXPECT_GT(L.port(), 0);
  // Nothing is connecting: acceptOnce must return invalid at deadline.
  Socket None = L.acceptOnce(50);
  EXPECT_FALSE(None.valid());
}

} // namespace
