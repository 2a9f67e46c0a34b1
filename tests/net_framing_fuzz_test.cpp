//===- tests/net_framing_fuzz_test.cpp - frame decoder corruption sweep ---===//
//
// The fgbs.cachewire.v1 decoder under hostile bytes: a deterministic
// sweep flips every byte of a valid frame of every opcode (and a seeded
// multi-byte scramble on top), and the decoder must come back with a
// typed wire error or a clean frame — never a crash, a hang, or an
// over-read.  A second layer aims the same corruption at a live
// CacheServer: frame-level damage drops the connection, payload-level
// garbage (valid framing, nonsense fields) gets a typed Error response,
// and the server stays healthy throughout.
//
//===----------------------------------------------------------------------===//

#include "fgbs/net/CacheServer.h"
#include "fgbs/net/Framing.h"
#include "fgbs/support/BinaryIo.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace fgbs;
using namespace fgbs::binio;

namespace {

/// One valid frame per request/response opcode, with representative
/// payloads — the corpus every corruption sweep starts from.
std::vector<std::pair<net::Opcode, std::string>> frameCorpus() {
  std::vector<std::pair<net::Opcode, std::string>> Corpus;
  auto add = [&](net::Opcode Op, std::string Payload) {
    Corpus.emplace_back(Op, std::move(Payload));
  };

  add(net::Opcode::Ping, "");
  std::string Name;
  putStr(Name, "fgbs-meas-0123456789abcdef.v1");
  add(net::Opcode::Exists, Name);
  add(net::Opcode::Get, Name);
  add(net::Opcode::Remove, Name);
  std::string Put = Name;
  Put += "some entry bytes, not structured";
  add(net::Opcode::Put, Put);
  add(net::Opcode::Stats, "");
  std::string ScanPrefix;
  putStr(ScanPrefix, "model/suite/");
  add(net::Opcode::ScanPrefix, ScanPrefix);

  add(net::Opcode::Ok, Name);
  add(net::Opcode::NotFound, "");
  std::string Error;
  putStr(Error, "synthetic failure message");
  add(net::Opcode::Error, Error);
  return Corpus;
}

/// Feeds \p Bytes to the decoder through a real socket (then EOF) and
/// returns what it made of them.  The 2 s deadline turns a decoder hang
/// into a typed Timeout instead of a wedged test run.
net::WireError decodeBytes(const std::string &Bytes, net::Frame &Out) {
  int Fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fds[1], Bytes.data() + Off, Bytes.size() - Off);
    EXPECT_GT(N, 0) << "socketpair write failed";
    if (N <= 0)
      break;
    Off += static_cast<std::size_t>(N);
  }
  ::close(Fds[1]); // EOF after the corrupted bytes: truncation, not hang
  net::Socket Reader(Fds[0]);
  return net::readFrame(Reader, Out, 2000);
}

/// Does \p Offset land in the frame's opcode field?  That is the one
/// header region readFrame does not (and must not) validate — opcode
/// dispatch belongs to the server, which answers Error for junk values.
bool inOpcodeField(std::size_t Offset) { return Offset >= 12 && Offset < 16; }

} // namespace

//===----------------------------------------------------------------------===//
// Decoder-level sweeps
//===----------------------------------------------------------------------===//

TEST(FramingFuzz, EveryByteFlipIsDetectedOrHarmless) {
  for (const auto &[Op, Payload] : frameCorpus()) {
    const std::string Clean = net::encodeFrame(Op, Payload);
    for (std::size_t Offset = 0; Offset < Clean.size(); ++Offset) {
      std::string Bad = Clean;
      Bad[Offset] = static_cast<char>(Bad[Offset] ^ 0xFF);
      net::Frame Out;
      const auto Start = std::chrono::steady_clock::now();
      net::WireError E = decodeBytes(Bad, Out);
      const auto ElapsedMs =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - Start)
              .count();
      EXPECT_LT(ElapsedMs, 1900)
          << "decoder stalled on " << net::opcodeName(Op) << " offset "
          << Offset;
      // Every flip outside the opcode field lands in bytes the header
      // discipline covers (magic, version, size, CRC, or checksummed
      // payload) and must be rejected; an opcode flip yields a clean
      // frame with a junk opcode, which is the server's problem.
      if (E == net::WireError::None)
        EXPECT_TRUE(inOpcodeField(Offset))
            << "undetected corruption in " << net::opcodeName(Op)
            << " at offset " << Offset;
      else
        EXPECT_NE(E, net::WireError::Timeout)
            << net::opcodeName(Op) << " offset " << Offset;
    }
  }
}

TEST(FramingFuzz, TruncationAtEveryLengthIsTyped) {
  for (const auto &[Op, Payload] : frameCorpus()) {
    const std::string Clean = net::encodeFrame(Op, Payload);
    for (std::size_t Len = 0; Len < Clean.size(); ++Len) {
      net::Frame Out;
      net::WireError E = decodeBytes(Clean.substr(0, Len), Out);
      if (Len == 0)
        EXPECT_EQ(E, net::WireError::Closed);
      else
        EXPECT_NE(E, net::WireError::None)
            << net::opcodeName(Op) << " truncated to " << Len << " bytes";
      EXPECT_NE(E, net::WireError::Timeout);
    }
  }
}

TEST(FramingFuzz, SeededScrambleNeverHangsOrOverReads) {
  // Multi-byte corruption, including the size field taking arbitrary
  // values: the decoder must always come back within its deadline with
  // a frame or a typed error, whatever the bytes say.
  std::mt19937 Rng(0xF7A2u);
  const auto Corpus = frameCorpus();
  for (int Round = 0; Round < 400; ++Round) {
    const auto &[Op, Payload] = Corpus[Rng() % Corpus.size()];
    std::string Bad = net::encodeFrame(Op, Payload);
    const unsigned Edits = 1 + Rng() % 4;
    for (unsigned I = 0; I < Edits; ++I)
      Bad[Rng() % Bad.size()] = static_cast<char>(Rng());
    net::Frame Out;
    net::WireError E = decodeBytes(Bad, Out);
    EXPECT_NE(E, net::WireError::Timeout) << "round " << Round;
  }
}

TEST(FramingFuzz, CleanCorpusRoundTrips) {
  // The sweeps above are only meaningful if the uncorrupted corpus
  // actually decodes.
  for (const auto &[Op, Payload] : frameCorpus()) {
    net::Frame Out;
    EXPECT_EQ(decodeBytes(net::encodeFrame(Op, Payload), Out),
              net::WireError::None);
    EXPECT_EQ(Out.Op, Op);
    EXPECT_EQ(Out.Payload, Payload);
  }
}

//===----------------------------------------------------------------------===//
// Server-level: a live fgbs_cached must shrug all of it off
//===----------------------------------------------------------------------===//

namespace {

class FuzzServer : public ::testing::Test {
protected:
  void SetUp() override {
    Root = ::testing::TempDir() + "fgbs_fuzz_server_" +
           std::to_string(static_cast<long>(::getpid()));
    net::CacheServerConfig Config;
    Config.Root = Root;
    Config.Threads = 2;
    Config.BindAddr = "127.0.0.1";
    Server = std::make_unique<net::CacheServer>(std::move(Config));
    std::string Error;
    ASSERT_TRUE(Server->start(&Error)) << Error;
  }

  void TearDown() override {
    Server->stop();
    std::error_code Ignored;
    std::filesystem::remove_all(Root, Ignored);
  }

  net::Socket connect() {
    std::string Error;
    net::Socket S =
        net::Socket::connectTo("127.0.0.1", Server->port(), 2000, &Error);
    EXPECT_TRUE(S.valid()) << Error;
    return S;
  }

  /// The health probe between corruption rounds: the server must still
  /// answer a clean Ping on a fresh connection.
  void expectAlive() {
    net::Socket S = connect();
    ASSERT_TRUE(net::writeFrame(S, net::Opcode::Ping, "", 2000));
    net::Frame Reply;
    ASSERT_EQ(net::readFrame(S, Reply, 2000), net::WireError::None);
    EXPECT_EQ(Reply.Op, net::Opcode::Ok);
  }

  std::string Root;
  std::unique_ptr<net::CacheServer> Server;
};

} // namespace

TEST_F(FuzzServer, SurvivesFrameLevelDamage) {
  // One corrupted offset per header region (magic, version, opcode,
  // size, CRC) plus mid-payload, for every opcode: the server may
  // answer or drop the connection, but it must keep serving others.
  for (const auto &[Op, Payload] : frameCorpus()) {
    const std::string Clean = net::encodeFrame(Op, Payload);
    std::vector<std::size_t> Offsets = {0, 9, 13, 17, 25};
    if (!Payload.empty())
      Offsets.push_back(net::kWireHeaderBytes + Payload.size() / 2);
    for (std::size_t Offset : Offsets) {
      std::string Bad = Clean;
      Bad[Offset] = static_cast<char>(Bad[Offset] ^ 0xFF);
      net::Socket S = connect();
      ASSERT_TRUE(S.valid());
      S.sendAll(Bad.data(), Bad.size(), 2000);
      net::Frame Reply;
      net::readFrame(S, Reply, 300); // any outcome; just bounded
      S.close();
    }
    expectAlive();
  }
}

TEST_F(FuzzServer, RejectsMalformedNamespacedNamesWithTypedErrors) {
  // The namespace separator opens a path-traversal-shaped attack
  // surface; every spelling below must come back as a typed Error on a
  // live connection — never a stored entry, a dropped connection, or a
  // crash.  One canonical encoding: dot segments, empty segments,
  // unknown namespaces, the reserved '~' escape byte, and over-long
  // names are all rejects.
  const std::vector<std::string> BadNames = {
      "",                      // empty name
      "model/",                // namespace with no segments
      "model//x",              // empty segment
      "model/x/",              // trailing separator (empty last segment)
      "model/./x",             // dot segment
      "model/../x",            // dot-dot segment
      "model/x/..",            // dot-dot leaf
      "model/x y/z",           // whitespace in a segment
      "model/x\x01y",          // control byte in a segment
      "meas/",                 // the retired alias, with no rest
      "meas/..",               // the retired alias of an invalid name
      "meas/x/y",              // the flat space has no sub-paths
      "snapshots/x",           // unknown namespace
      "model/x~y/z",           // reserved flat-encoding escape byte
      "fgbs~meas",             // reserved escape in a flat name
      "/model/x",              // absolute-looking spelling
      "model/" + std::string(300, 'a'), // over the 255-byte entry limit
      // The retired alias of the flat space, with a valid flat name.
      "meas/fgbs-meas-0123456789abcdef.v1",
  };
  net::Socket S = connect();
  ASSERT_TRUE(S.valid());
  for (const std::string &Name : BadNames) {
    std::string Payload;
    putStr(Payload, Name);
    ASSERT_TRUE(net::writeFrame(S, net::Opcode::Exists, Payload, 2000));
    net::Frame Reply;
    ASSERT_EQ(net::readFrame(S, Reply, 2000), net::WireError::None)
        << "name '" << Name << "'";
    EXPECT_EQ(Reply.Op, net::Opcode::Error) << "name '" << Name << "'";

    // A Put must be refused too — rejection at the read side only would
    // still let hostile names onto the disk.
    std::string PutPayload;
    putStr(PutPayload, Name);
    PutPayload += "payload";
    ASSERT_TRUE(net::writeFrame(S, net::Opcode::Put, PutPayload, 2000));
    ASSERT_EQ(net::readFrame(S, Reply, 2000), net::WireError::None)
        << "name '" << Name << "'";
    EXPECT_EQ(Reply.Op, net::Opcode::Error) << "put of name '" << Name << "'";
  }
  // The canonical spellings still work on the same connection.
  for (const std::string &Good :
       {std::string("model/suite/sha/") + std::string(64, 'e'),
        std::string("fgbs-meas-0123456789abcdef.v1")}) {
    std::string Payload;
    putStr(Payload, Good);
    ASSERT_TRUE(net::writeFrame(S, net::Opcode::Exists, Payload, 2000));
    net::Frame Reply;
    ASSERT_EQ(net::readFrame(S, Reply, 2000), net::WireError::None);
    EXPECT_EQ(Reply.Op, net::Opcode::Ok) << "name '" << Good << "'";
  }
  expectAlive();
}

TEST_F(FuzzServer, UnassignedOpcodesAnswerTypedErrorsAndKeepTheConnection) {
  // Opcodes 5 and 6 were a suffix-filtered scan and a server-wide
  // prune, 7-8 took and gave back a writer lock on the server, and 9-13
  // drove a server-side work queue; they are unassigned now.  A client
  // still sending them, with the payloads they used to carry, must get
  // a typed Error on a connection that stays usable — never Ok, a drop,
  // or a crash.
  const std::string Name = "fgbs-meas-0123456789abcdef.v1";
  std::string Scan;
  putStr(Scan, "fgbs-meas-");
  putStr(Scan, ".v1");
  std::string Prune;
  putU64(Prune, 1 << 20);
  putU64(Prune, 3600);
  putU64(Prune, 1 << 30);
  putU64(Prune, 86400);
  std::string Acquire;
  putStr(Acquire, Name);
  putU64(Acquire, 0x1234u);
  putU64(Acquire, 30000);
  std::string Release;
  putStr(Release, Name);
  putU64(Release, 0x1234u);
  std::string Enqueue;
  putStr(Enqueue, Name);
  putStr(Enqueue, "opaque work spec");
  std::string Claim;
  putU64(Claim, 0xBEEFu);
  putU64(Claim, 30000);
  putU32(Claim, 4);
  std::string Renew;
  putU64(Renew, 0xBEEFu);
  putU64(Renew, 30000);
  putU32(Renew, 1);
  putStr(Renew, Name);
  std::string Finish;
  putStr(Finish, Name);
  putU64(Finish, 0xBEEFu);
  const std::vector<std::pair<std::uint32_t, std::string>> Retired = {
      {5, Scan},   {6, Prune},  {7, Acquire}, {8, Release}, {9, Enqueue},
      {10, Claim}, {11, Renew}, {12, Finish}, {13, Finish}};

  net::Socket S = connect();
  ASSERT_TRUE(S.valid());
  for (const auto &[Raw, Payload] : Retired) {
    const auto Op = static_cast<net::Opcode>(Raw);
    ASSERT_TRUE(net::writeFrame(S, Op, Payload, 2000)) << "opcode " << Raw;
    net::Frame Reply;
    ASSERT_EQ(net::readFrame(S, Reply, 2000), net::WireError::None)
        << "opcode " << Raw;
    ASSERT_EQ(Reply.Op, net::Opcode::Error) << "opcode " << Raw;
    ByteReader In(Reply.Payload);
    const std::string Message = In.str();
    EXPECT_FALSE(In.overrun()) << "opcode " << Raw;
    EXPECT_NE(Message.find("unsupported opcode"), std::string::npos)
        << "opcode " << Raw << ": " << Message;
  }
  ASSERT_TRUE(net::writeFrame(S, net::Opcode::Ping, "", 2000));
  net::Frame Pong;
  ASSERT_EQ(net::readFrame(S, Pong, 2000), net::WireError::None);
  EXPECT_EQ(Pong.Op, net::Opcode::Ok);
  expectAlive();
}

TEST_F(FuzzServer, AnswersGarbagePayloadsWithTypedErrors) {
  // Valid framing around meaningless payload bytes: the server must
  // parse defensively and answer every one (Ok/NotFound/Error), never
  // drop the connection mid-conversation or die.
  std::mt19937 Rng(0x5EED5u);
  net::Socket S = connect();
  ASSERT_TRUE(S.valid());
  for (const auto &[Op, Payload] : frameCorpus()) {
    if (Op >= net::Opcode::Ok)
      continue; // responses are not requests; the server drops them
    std::string Garbage(1 + Rng() % 64, '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rng());
    ASSERT_TRUE(net::writeFrame(S, Op, Garbage, 2000))
        << net::opcodeName(Op);
    net::Frame Reply;
    ASSERT_EQ(net::readFrame(S, Reply, 2000), net::WireError::None)
        << net::opcodeName(Op);
    EXPECT_TRUE(Reply.Op == net::Opcode::Ok ||
                Reply.Op == net::Opcode::NotFound ||
                Reply.Op == net::Opcode::Error)
        << net::opcodeName(Op);
  }
  expectAlive();
}
