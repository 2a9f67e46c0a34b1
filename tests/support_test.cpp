//===- tests/support_test.cpp - Rng, statistics, matrix, tables, CRC ------===//

#include "fgbs/support/BinaryIo.h"
#include "fgbs/support/Crc32.h"
#include "fgbs/support/Matrix.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/Statistics.h"
#include "fgbs/support/TextTable.h"
#include "fgbs/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

using namespace fgbs;

TEST(Rng, DeterministicBySeed) {
  Rng A(42);
  Rng B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextU64(), B.nextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1);
  Rng B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.nextU64() == B.nextU64();
  EXPECT_LT(Same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 10000; ++I) {
    double V = R.uniform();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng R(11);
  double Sum = 0.0;
  constexpr int N = 50000;
  for (int I = 0; I < N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(13);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng R(17);
  std::set<std::uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(R.below(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Rng, NormalMoments) {
  Rng R(19);
  constexpr int N = 100000;
  double Sum = 0.0;
  double Sq = 0.0;
  for (int I = 0; I < N; ++I) {
    double V = R.normal();
    Sum += V;
    Sq += V * V;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.02);
  EXPECT_NEAR(Sq / N, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng R(23);
  constexpr int N = 50000;
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += R.normal(10.0, 2.0);
  EXPECT_NEAR(Sum / N, 10.0, 0.05);
}

TEST(Rng, BernoulliEdges) {
  Rng R(29);
  EXPECT_FALSE(R.bernoulli(0.0));
  EXPECT_TRUE(R.bernoulli(1.0));
}

TEST(Rng, BernoulliRate) {
  Rng R(31);
  int Hits = 0;
  constexpr int N = 50000;
  for (int I = 0; I < N; ++I)
    Hits += R.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.25, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng R(37);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng R(41);
  std::vector<std::size_t> S = R.sampleWithoutReplacement(100, 30);
  EXPECT_EQ(S.size(), 30u);
  std::set<std::size_t> Set(S.begin(), S.end());
  EXPECT_EQ(Set.size(), 30u);
  for (std::size_t V : S)
    EXPECT_LT(V, 100u);
}

TEST(Rng, HashStringStable) {
  EXPECT_EQ(hashString("abc"), hashString("abc"));
  EXPECT_NE(hashString("abc"), hashString("abd"));
}

TEST(Rng, HashCombineOrderSensitive) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Statistics, MedianOdd) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Statistics, MedianEven) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Statistics, MedianSingle) {
  EXPECT_DOUBLE_EQ(median({42.0}), 42.0);
}

TEST(Statistics, MeanAndSum) {
  std::vector<double> V = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sum(V), 10.0);
  EXPECT_DOUBLE_EQ(mean(V), 2.5);
}

TEST(Statistics, VarianceOfConstant) {
  EXPECT_DOUBLE_EQ(variance({5.0, 5.0, 5.0}), 0.0);
}

TEST(Statistics, VarianceKnown) {
  // Population variance of {1,2,3,4} is 1.25.
  EXPECT_DOUBLE_EQ(variance({1.0, 2.0, 3.0, 4.0}), 1.25);
  EXPECT_DOUBLE_EQ(stddev({1.0, 2.0, 3.0, 4.0}), std::sqrt(1.25));
}

TEST(Statistics, GeometricMean) {
  EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geometricMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Statistics, PercentileEndpoints) {
  std::vector<double> V = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 3.0);
}

TEST(Statistics, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25), 2.5);
}

TEST(Statistics, ArgMinMax) {
  std::vector<double> V = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(argMin(V), 1u); // First of the tied minima.
  EXPECT_EQ(argMax(V), 4u);
}

TEST(Statistics, PercentError) {
  EXPECT_DOUBLE_EQ(percentError(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentError(90.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentError(100.0, 100.0), 0.0);
}

TEST(Matrix, RowColumnRoundTrip) {
  Matrix M(2, 3);
  M.setRow(0, {1.0, 2.0, 3.0});
  M.setRow(1, {4.0, 5.0, 6.0});
  EXPECT_EQ(M.row(1), (std::vector<double>{4.0, 5.0, 6.0}));
  EXPECT_EQ(M.column(2), (std::vector<double>{3.0, 6.0}));
}

TEST(Matrix, MultiplyIdentityLike) {
  Matrix M(2, 2);
  M.at(0, 0) = 1.0;
  M.at(1, 1) = 1.0;
  EXPECT_EQ(M.multiply({7.0, 9.0}), (std::vector<double>{7.0, 9.0}));
}

TEST(Matrix, MultiplyKnown) {
  Matrix M(2, 3);
  M.setRow(0, {1.0, 0.0, 2.0});
  M.setRow(1, {0.0, 3.0, 0.0});
  std::vector<double> Out = M.multiply({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(Out[0], 7.0);
  EXPECT_DOUBLE_EQ(Out[1], 6.0);
}

TEST(Matrix, Distances) {
  std::vector<double> A = {0.0, 0.0};
  std::vector<double> B = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(squaredDistance(A, B), 25.0);
  EXPECT_DOUBLE_EQ(euclideanDistance(A, B), 5.0);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatPercent(8.04), "8.0%");
  EXPECT_EQ(formatFactor(44.3), "x44.3");
}

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.setHeader({"a", "bbbb"});
  T.addRow({"xx", "y"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("a   bbbb"), std::string::npos);
  EXPECT_NE(Out.find("xx  y"), std::string::npos);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Threads);
    std::vector<std::atomic<int>> Hits(1000);
    for (auto &H : Hits)
      H.store(0);
    Pool.parallelFor(0, Hits.size(),
                     [&Hits](std::size_t I) { Hits[I].fetch_add(1); });
    for (std::size_t I = 0; I < Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
  }
}

TEST(ThreadPool, PerIndexSlotsAreDeterministic) {
  auto Square = [](std::size_t I) { return static_cast<double>(I * I); };
  std::vector<double> Serial(257);
  ThreadPool One(1);
  One.parallelFor(0, Serial.size(),
                  [&](std::size_t I) { Serial[I] = Square(I); });
  std::vector<double> Parallel(257);
  ThreadPool Four(4);
  Four.parallelFor(0, Parallel.size(),
                   [&](std::size_t I) { Parallel[I] = Square(I); });
  EXPECT_EQ(Serial, Parallel);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool Pool(4);
  int Calls = 0;
  Pool.parallelFor(5, 5, [&Calls](std::size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool Pool(3);
  std::atomic<std::size_t> Total{0};
  for (int Job = 0; Job < 20; ++Job)
    Pool.parallelFor(0, 100, [&Total](std::size_t) { Total.fetch_add(1); });
  EXPECT_EQ(Total.load(), 2000u);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(0, 100,
                                [](std::size_t I) {
                                  if (I == 37)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Still usable afterwards.
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 10, [&Count](std::size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 10);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

// Exact CRC-32 values, recorded from the bytewise table loop.  Every
// checksum in fgbs.meas.v1, fgbs.model.v1, fgbs.ref.v1 and
// fgbs.cachewire.v1 rides on them, so none may move.
TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(crc32(std::string(1 << 20, '\0')), 0xA738EA1Cu);

  Rng R(0xC3C32);
  std::string Seeded(64 << 10, '\0');
  for (char &C : Seeded)
    C = static_cast<char>(R.nextU64() & 0xff);
  EXPECT_EQ(crc32(Seeded), 0x58AB0074u);
}

namespace {

/// The bytewise table loop crc32Update ran before slice-by-8, kept as
/// the oracle.
std::uint32_t referenceCrc32(const unsigned char *Bytes, std::size_t Size) {
  std::uint32_t Table[256];
  for (std::uint32_t I = 0; I < 256; ++I) {
    std::uint32_t C = I;
    for (int Bit = 0; Bit < 8; ++Bit)
      C = (C >> 1) ^ ((C & 1u) ? 0xedb88320u : 0u);
    Table[I] = C;
  }
  std::uint32_t Crc = 0xffffffffu;
  for (std::size_t I = 0; I < Size; ++I)
    Crc = Table[(Crc ^ Bytes[I]) & 0xffu] ^ (Crc >> 8);
  return Crc ^ 0xffffffffu;
}

std::vector<unsigned char> seededBytes(std::size_t Size, std::uint64_t Seed) {
  Rng R(Seed);
  std::vector<unsigned char> Bytes(Size);
  for (unsigned char &B : Bytes)
    B = static_cast<unsigned char>(R.nextU64() & 0xff);
  return Bytes;
}

std::string_view view(const unsigned char *Bytes, std::size_t Size) {
  return {reinterpret_cast<const char *>(Bytes), Size};
}

} // namespace

// Every tail length and every head of the eight-byte steps, at every
// alignment: the slice-by-8 loop must agree with the bytewise oracle.
TEST(Crc32, MatchesBytewiseOracleAtEveryLengthAndOffset) {
  const std::vector<unsigned char> Bytes = seededBytes(300 + 8, 0x511CE8);
  for (std::size_t Offset = 0; Offset < 8; ++Offset)
    for (std::size_t Size = 0; Size <= 300; ++Size)
      ASSERT_EQ(crc32(view(Bytes.data() + Offset, Size)),
                referenceCrc32(Bytes.data() + Offset, Size))
          << "offset " << Offset << ", size " << Size;
}

TEST(Crc32, ChainedUpdatesEqualTheOneShotValue) {
  const std::vector<unsigned char> Bytes = seededBytes(1024, 0xC4A1);
  const std::uint32_t Whole = crc32(view(Bytes.data(), Bytes.size()));
  ASSERT_EQ(Whole, referenceCrc32(Bytes.data(), Bytes.size()));
  for (std::size_t Split = 0; Split <= Bytes.size(); ++Split) {
    std::uint32_t Crc = crc32Update(crc32Init(), Bytes.data(), Split);
    Crc = crc32Update(Crc, Bytes.data() + Split, Bytes.size() - Split);
    ASSERT_EQ(crc32Final(Crc), Whole) << "split at " << Split;
  }
}

//===----------------------------------------------------------------------===//
// BinaryIo: the little-endian primitives under every binary format
//===----------------------------------------------------------------------===//

namespace {

std::string hexOf(std::string_view Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (char C : Bytes) {
    const unsigned char B = static_cast<unsigned char>(C);
    Out.push_back(Digits[B >> 4]);
    Out.push_back(Digits[B & 0xf]);
  }
  return Out;
}

std::uint64_t bitsOf(double V) { return std::bit_cast<std::uint64_t>(V); }

/// Little-endian value of \p Size bytes at \p P, assembled bytewise.
std::uint64_t bytewiseLe(const unsigned char *P, std::size_t Size) {
  std::uint64_t V = 0;
  for (std::size_t B = 0; B < Size; ++B)
    V |= static_cast<std::uint64_t>(P[B]) << (8 * B);
  return V;
}

} // namespace

// The exact bytes every fgbs.meas.v1, fgbs.model.v1 and fgbs.ref.v1
// blob and every wire frame are made of.
TEST(BinaryIo, WriterGoldenBytes) {
  auto U32 = [](std::uint32_t V) {
    std::string Out;
    binio::putU32(Out, V);
    return hexOf(Out);
  };
  auto U64 = [](std::uint64_t V) {
    std::string Out;
    binio::putU64(Out, V);
    return hexOf(Out);
  };
  auto F64 = [](double V) {
    std::string Out;
    binio::putF64(Out, V);
    return hexOf(Out);
  };
  auto Str = [](const std::string &S) {
    std::string Out;
    binio::putStr(Out, S);
    return hexOf(Out);
  };
  EXPECT_EQ(U32(0), "00000000");
  EXPECT_EQ(U32(0x01020304u), "04030201");
  EXPECT_EQ(U32(0xdeadbeefu), "efbeadde");
  EXPECT_EQ(U32(0xffffffffu), "ffffffff");
  EXPECT_EQ(U64(0), "0000000000000000");
  EXPECT_EQ(U64(0x0102030405060708ull), "0807060504030201");
  EXPECT_EQ(U64(0x8000000000000001ull), "0100000000000080");
  EXPECT_EQ(U64(~0ull), "ffffffffffffffff");
  EXPECT_EQ(F64(0.0), "0000000000000000");
  EXPECT_EQ(F64(-0.0), "0000000000000080");
  EXPECT_EQ(F64(1.0), "000000000000f03f");
  EXPECT_EQ(F64(-1.5), "000000000000f8bf");
  EXPECT_EQ(F64(0.1), "9a9999999999b93f");
  EXPECT_EQ(F64(std::bit_cast<double>(0x7ff8000000000123ull)),
            "230100000000f87f");
  EXPECT_EQ(F64(std::bit_cast<double>(0xfff4000000abcdefull)),
            "efcdab000000f4ff");
  EXPECT_EQ(F64(std::numeric_limits<double>::denorm_min()),
            "0100000000000000");
  EXPECT_EQ(F64(std::bit_cast<double>(0x000fffffffffffffull)),
            "ffffffffffff0f00");
  EXPECT_EQ(F64(std::numeric_limits<double>::infinity()),
            "000000000000f07f");
  EXPECT_EQ(Str(""), "00000000");
  EXPECT_EQ(Str("abc"), "03000000616263");
  EXPECT_EQ(Str(std::string("a\0b", 3)), "03000000610062");
  EXPECT_EQ(Str(std::string(300, 'z')).substr(0, 12), "2c0100007a7a");

  // Appends go after what the string already holds.
  std::string Out = "xy";
  binio::putU32(Out, 7);
  binio::putF64(Out, -0.0);
  binio::putU64(Out, 0x1122334455667788ull);
  binio::putStr(Out, "q");
  EXPECT_EQ(hexOf(Out),
            "7879" "07000000" "0000000000000080" "8877665544332211"
            "01000000" "71");
}

// Every reader at every alignment of its first byte, against values
// assembled bytewise from the same bytes.
TEST(BinaryIo, ReadersAgreeWithBytewiseDecodingAtEveryOffset) {
  const std::vector<unsigned char> Seeded = seededBytes(8 + 64, 0xB1A10);
  for (std::size_t Offset = 0; Offset < 8; ++Offset) {
    SCOPED_TRACE("offset " + std::to_string(Offset));
    const unsigned char *P = Seeded.data() + Offset;
    binio::ByteReader In(view(P, 64));
    EXPECT_EQ(In.u8(), P[0]);
    EXPECT_EQ(In.u32(), bytewiseLe(P + 1, 4));
    EXPECT_EQ(In.u64(), bytewiseLe(P + 5, 8));
    EXPECT_EQ(bitsOf(In.f64()), bytewiseLe(P + 13, 8));
    const std::vector<double> Block = In.f64Vector(5);
    ASSERT_EQ(Block.size(), 5u);
    for (std::size_t I = 0; I < Block.size(); ++I)
      EXPECT_EQ(bitsOf(Block[I]), bytewiseLe(P + 21 + 8 * I, 8)) << I;
    EXPECT_EQ(In.remaining(), 64u - 61u);
    EXPECT_FALSE(In.overrun());

    // A written payload read back from a misaligned copy.
    std::string Payload(Offset, '#');
    binio::putU32(Payload, 0x89abcdefu);
    binio::putU64(Payload, 0x0123456789abcdefull);
    binio::putF64(Payload, -0.0);
    binio::putF64(Payload, std::bit_cast<double>(0x7ff8000000000123ull));
    binio::putStr(Payload, "codelet");
    for (double V : {1.0, std::numeric_limits<double>::denorm_min(), -2.5})
      binio::putF64(Payload, V);
    binio::ByteReader Back(std::string_view(Payload).substr(Offset));
    EXPECT_EQ(Back.u32(), 0x89abcdefu);
    EXPECT_EQ(Back.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(bitsOf(Back.f64()), bitsOf(-0.0));
    EXPECT_EQ(bitsOf(Back.f64()), 0x7ff8000000000123ull);
    EXPECT_EQ(Back.str(), "codelet");
    const std::vector<double> Tail = Back.f64Vector(3);
    ASSERT_EQ(Tail.size(), 3u);
    EXPECT_EQ(Tail[0], 1.0);
    EXPECT_EQ(bitsOf(Tail[1]), 1u);
    EXPECT_EQ(Tail[2], -2.5);
    EXPECT_TRUE(Back.atEnd());
    EXPECT_FALSE(Back.overrun());
  }
}

TEST(BinaryIo, ShortReadReturnsZeroAndTheOverrunFlagStays) {
  const std::string Bytes = "\x01\x02\x03";
  binio::ByteReader In(Bytes);
  EXPECT_EQ(In.u32(), 0u);
  EXPECT_TRUE(In.overrun());
  EXPECT_EQ(In.remaining(), 3u) << "a failed read consumes nothing";
  // Later reads that would fit fail too: the flag is sticky.
  EXPECT_EQ(In.u8(), 0u);
  EXPECT_EQ(In.u64(), 0u);
  EXPECT_EQ(bitsOf(In.f64()), 0u);
  EXPECT_EQ(In.str(), "");
  EXPECT_TRUE(In.overrun());
  EXPECT_EQ(In.remaining(), 3u);

  binio::ByteReader Short(std::string_view("\x01\x02\x03\x04\x05\x06\x07", 7));
  EXPECT_EQ(Short.u64(), 0u);
  EXPECT_TRUE(Short.overrun());
  binio::ByteReader Double(std::string_view("\x00\x00\x00\x00\x00\x00\xf0", 7));
  EXPECT_EQ(bitsOf(Double.f64()), 0u);
  EXPECT_TRUE(Double.overrun());

  // A string whose length prefix runs past the end.
  std::string Prefixed;
  binio::putU32(Prefixed, 10);
  Prefixed += "ab";
  binio::ByteReader Str(Prefixed);
  EXPECT_EQ(Str.str(), "");
  EXPECT_TRUE(Str.overrun());
  EXPECT_EQ(Str.u8(), 0u);

  // Exactly enough bytes is not a short read.
  binio::ByteReader Exact(std::string_view("\x2a\x00\x00\x00", 4));
  EXPECT_EQ(Exact.u32(), 42u);
  EXPECT_FALSE(Exact.overrun());
  EXPECT_TRUE(Exact.atEnd());
  EXPECT_EQ(Exact.u8(), 0u);
  EXPECT_TRUE(Exact.overrun());
}

TEST(BinaryIo, F64VectorRejectsACountPastTheBytesBeforeAllocating) {
  std::string Bytes;
  for (double V : {1.0, 2.0})
    binio::putF64(Bytes, V);
  Bytes += "pad!";
  ASSERT_EQ(Bytes.size(), 20u);

  binio::ByteReader TooMany(Bytes);
  EXPECT_TRUE(TooMany.f64Vector(3).empty());
  EXPECT_TRUE(TooMany.overrun());
  EXPECT_EQ(TooMany.remaining(), 20u);

  // A count no allocation could satisfy is refused, not attempted.
  for (std::size_t Count : {std::numeric_limits<std::size_t>::max(),
                            std::numeric_limits<std::size_t>::max() / 8 + 1,
                            std::size_t(1) << 40}) {
    binio::ByteReader Absurd(Bytes);
    std::vector<double> V;
    EXPECT_NO_THROW(V = Absurd.f64Vector(Count)) << Count;
    EXPECT_TRUE(V.empty());
    EXPECT_TRUE(Absurd.overrun());
  }

  binio::ByteReader Fits(Bytes);
  EXPECT_EQ(Fits.f64Vector(2), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(Fits.remaining(), 4u);
  EXPECT_TRUE(Fits.f64Vector(0).empty());
  EXPECT_FALSE(Fits.overrun());
  EXPECT_TRUE(Fits.f64Vector(1).empty());
  EXPECT_TRUE(Fits.overrun());
}
