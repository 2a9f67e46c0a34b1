//===- tests/executor_test.cpp - Execution model behaviour ----------------===//

#include "fgbs/sim/Executor.h"

#include "fgbs/dsl/Builder.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>

using namespace fgbs;

namespace {

/// Streaming triad over \p Elems DP elements.
Codelet triad(std::uint64_t Elems) {
  CodeletBuilder B("exec_triad_" + std::to_string(Elems), "t");
  unsigned A = B.array("a", Precision::DP, Elems);
  unsigned X = B.array("x", Precision::DP, Elems);
  B.loops(Elems);
  B.stmt(storeTo(B.at(A, StrideClass::Unit),
                 add(B.ld(X, StrideClass::Unit),
                     mul(constant(Precision::DP),
                         B.ld(A, StrideClass::Unit)))));
  return B.take();
}

/// Compute-heavy kernel over a tiny footprint.
Codelet computeHeavy() {
  CodeletBuilder B("exec_compute", "t");
  unsigned X = B.array("x", Precision::DP, 2048);
  B.loops(2048, 512);
  ExprPtr E = B.ld(X, StrideClass::Unit);
  for (int I = 0; I < 8; ++I)
    E = add(mul(std::move(E), constant(Precision::DP)),
            constant(Precision::DP));
  B.stmt(storeTo(B.at(X, StrideClass::Unit), std::move(E)));
  return B.take();
}

MemoryStreamDesc stream(std::int64_t StrideBytes, std::uint64_t Footprint,
                        bool IsStore = false) {
  return {StrideBytes, Footprint, 1, IsStore, 8};
}

/// sampleMemoryBehavior as first written: the same windows, with every
/// address computed in closed form, (T * Stride mod Footprint), where the
/// simulator now advances a wrapped offset.  The oracle for the
/// strength-reduced walk.
std::vector<std::vector<double>>
closedFormServedFractions(const std::vector<MemoryStreamDesc> &Streams,
                          const Machine &M, std::uint64_t TotalIterations) {
  CacheHierarchy Hierarchy(M);
  unsigned Levels = Hierarchy.numLevels();
  std::vector<std::uint64_t> Bases;
  std::uint64_t NextBase = 1 << 20;
  unsigned Touches = 0;
  for (std::size_t J = 0; J < Streams.size(); ++J) {
    Bases.push_back(NextBase + J * 192);
    NextBase += (Streams[J].FootprintBytes + 4095) / 4096 * 4096 + (1 << 16);
    Touches += Streams[J].PointsPerIter;
  }
  auto AddressAt = [&](std::size_t J, std::uint64_t Iter, unsigned Point) {
    const MemoryStreamDesc &D = Streams[J];
    std::int64_t Offset = static_cast<std::int64_t>(Iter) * D.StrideBytes;
    auto Span = static_cast<std::int64_t>(D.FootprintBytes);
    std::int64_t Wrapped = ((Offset % Span) + Span) % Span;
    return Bases[J] + Point * (D.FootprintBytes / D.PointsPerIter) +
           static_cast<std::uint64_t>(Wrapped);
  };

  std::uint64_t WrapIters = 1;
  std::uint64_t TotalFootprint = 0;
  for (const MemoryStreamDesc &S : Streams) {
    TotalFootprint += S.FootprintBytes;
    if (S.StrideBytes != 0)
      WrapIters = std::max<std::uint64_t>(
          WrapIters, S.FootprintBytes / std::llabs(S.StrideBytes) + 1);
  }
  if (TotalFootprint > 4 * M.lastLevelCacheBytes())
    WrapIters = std::min<std::uint64_t>(WrapIters, 30000);
  std::uint64_t WarmIters =
      std::min<std::uint64_t>(WrapIters + 1024, 3000000 / Touches);
  std::uint64_t MeasureIters = std::max<std::uint64_t>(1, 600000 / Touches);
  if (TotalIterations < WarmIters + MeasureIters) {
    WarmIters = TotalIterations / 2;
    MeasureIters = std::max<std::uint64_t>(1, TotalIterations - WarmIters);
  }

  for (std::uint64_t T = 0; T < WarmIters; ++T)
    for (std::size_t J = 0; J < Streams.size(); ++J)
      for (unsigned P = 0; P < Streams[J].PointsPerIter; ++P)
        Hierarchy.access(AddressAt(J, T, P));
  std::vector<std::vector<double>> Served(
      Streams.size(), std::vector<double>(Levels + 1, 0.0));
  for (std::uint64_t T = WarmIters; T < WarmIters + MeasureIters; ++T)
    for (std::size_t J = 0; J < Streams.size(); ++J)
      for (unsigned P = 0; P < Streams[J].PointsPerIter; ++P)
        Served[J][Hierarchy.access(AddressAt(J, T, P))] += 1.0;
  for (std::vector<double> &Row : Served) {
    double Total = 0.0;
    for (double Count : Row)
      Total += Count;
    for (double &Count : Row)
      Count /= Total;
  }
  return Served;
}

std::vector<std::vector<double>>
servedFractions(const std::vector<StreamBehavior> &Behavior) {
  std::vector<std::vector<double>> Out;
  for (const StreamBehavior &B : Behavior)
    Out.push_back(B.ServedFraction);
  return Out;
}

std::uint64_t counter(const obs::MetricsSnapshot &Snap, const char *Name) {
  auto It = Snap.Counters.find(Name);
  return It == Snap.Counters.end() ? 0 : It->second;
}

/// Stream shapes the goldens below pin, by case name.
struct GoldenCase {
  const char *Name;
  std::vector<MemoryStreamDesc> Streams;
  std::uint64_t TotalIterations;
};

const std::vector<GoldenCase> &goldenCases() {
  static const std::vector<GoldenCase> Cases = {
      {"ZeroStride", {{0, 4096, 1, false, 8}, {8, 64 << 10, 1, false, 8}},
       1 << 20},
      {"NegativeStride",
       {{-8, 2 << 20, 1, false, 8}, {-72, 512 << 10, 1, true, 8}},
       1 << 20},
      {"StrideBeyondFootprint",
       {{5000, 4096, 1, false, 8}, {-(3 << 20) - 64, 1 << 20, 1, false, 8}},
       1 << 20},
      {"Stencil",
       {{8, 6 << 20, 5, false, 8},
        {8, 1000003, 3, false, 8},
        {8, 6 << 20, 1, true, 8}},
       1 << 20},
      {"SubLineFootprint", {{8, 24, 1, false, 8}, {4, 40, 2, true, 4}},
       1 << 20},
      {"ShortRun", {{8, 1 << 20, 1, false, 8}, {64, 8 << 20, 1, false, 8}},
       1000},
      {"SingleIteration", {{8, 1 << 20, 2, false, 8}}, 1},
      {"SetConflicts",
       {{4096, 3 << 20, 1, false, 8},
        {8, 200 << 10, 1, false, 8},
        {-4160, 1 << 20, 1, true, 8}},
       1 << 20},
      {"PartialResidency",
       {{8, 300 << 10, 1, false, 8},
        {8, 300 << 10, 3, false, 8},
        {24, 5 << 20, 1, true, 8}},
       1 << 20},
      {"PastLastLevel",
       {{8, 32 << 20, 1, false, 8},
        {8, 32 << 20, 1, false, 8},
        {8, 32 << 20, 1, true, 8},
        {-8, 16 << 20, 1, false, 8},
        {8, 24 << 20, 7, false, 8}},
       1 << 24},
  };
  return Cases;
}

/// Seeded random shapes, including zero, negative and footprint-sized
/// strides, stencils and short runs.
std::vector<GoldenCase> seededShapes() {
  std::vector<GoldenCase> Shapes;
  Rng R(20140215);
  const std::int64_t Strides[] = {0, 4, 8, -8, 24, 64, -72, 4096, -4160};
  for (int I = 0; I < 16; ++I) {
    std::vector<MemoryStreamDesc> Streams;
    unsigned Count = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned J = 0; J < Count; ++J) {
      std::uint64_t Footprint =
          8 + R.below(std::uint64_t(1) << (10 + R.below(11)));
      std::int64_t Stride = Strides[R.below(std::size(Strides))];
      if (R.below(4) == 0) // Past the footprint, either way.
        Stride = (R.below(2) ? 1 : -1) *
                 static_cast<std::int64_t>(Footprint + R.below(999));
      Streams.push_back({Stride, Footprint,
                         1 + static_cast<unsigned>(R.below(4)),
                         R.below(2) == 0, 8});
    }
    std::uint64_t Iterations =
        R.below(2) ? 1 + R.below(20000) : std::uint64_t(1) << 20;
    Shapes.push_back({"seeded", std::move(Streams), Iterations});
  }
  return Shapes;
}

/// Seeded shapes whose iterations often touch exactly the lines of the
/// iteration before: runs cut by a line edge, a wrap, a window edge or
/// the end of the trace, streams whose runs are out of phase, and
/// iterations with more touches than an L1 has ways.  Footprints are
/// drawn at byte granularity, so most are not a multiple of the line
/// and most stencil points start off a line boundary.
std::vector<GoldenCase> repeatShapes() {
  std::vector<GoldenCase> Shapes;
  Rng R(20261019);
  // Short traces split their windows at T / 2, long ones at each
  // machine's own edges; either way most edges fall inside a run.
  auto Iterations = [&R] {
    return R.below(2) ? 3 + R.below(30000) : std::uint64_t(1) << 20;
  };
  auto Footprint = [&R](std::uint64_t Min, std::uint64_t Span) {
    return Min + R.below(Span);
  };
  for (int I = 0; I < 2; ++I) {
    // Eleven touches, as in NAS's largest traces: more than any paper
    // L1's ways, spread over many sets.
    Shapes.push_back({"ElevenTouches",
                      {{8, Footprint(40 << 10, 200 << 10), 5, false, 8},
                       {8, Footprint(8 << 10, 64 << 10), 3, false, 8},
                       {-8, Footprint(4 << 10, 32 << 10), 2, true, 8},
                       {16, Footprint(1 << 10, 16 << 10), 1, false, 8}},
                      Iterations()});
    // Stencil points 16 KiB apart share a set in every L1 here: six
    // lines of one set (Atom's ways exactly), then seven and eleven,
    // past Atom's six ways and the others' eight.
    for (unsigned Points : {6u, 7u, 11u})
      Shapes.push_back(
          {"OneSetStencil",
           {{8, (std::uint64_t(Points) << 14) + R.below(Points), Points, false,
             8},
            {0, Footprint(8, 4096), 1, true, 8}},
           Iterations()});
    // Small negative strides over small footprints wrap many times.
    Shapes.push_back({"NegativeWrap",
                      {{-4, Footprint(24, 3000), 1, false, 4},
                       {-8, Footprint(64, 5000), 2, false, 8},
                       {-16, Footprint(100, 9000), 1, true, 8},
                       {-24, Footprint(200, 20000), 1, false, 8}},
                      Iterations()});
    // Strides at a line and one byte either side of it.
    Shapes.push_back({"LineStrides",
                      {{63, Footprint(4 << 10, 600 << 10), 1, false, 8},
                       {64, Footprint(4 << 10, 600 << 10), 1, true, 8},
                       {65, Footprint(4 << 10, 600 << 10), 1, false, 8},
                       {-63, Footprint(4 << 10, 60 << 10), 1, false, 8}},
                      Iterations()});
    // Opposite 16-byte streams whose runs start and end out of phase.
    Shapes.push_back({"PlusMinusSixteen",
                      {{16, Footprint(1 << 10, 300 << 10), 1, false, 8},
                       {-16, Footprint(1 << 10, 300 << 10), 1, true, 8},
                       {16, Footprint(100, 3000), 2, false, 8},
                       {-8, Footprint(100, 3000), 1, false, 8}},
                      Iterations()});
    // Stencils whose points start off a line boundary, beside a stream
    // whose footprint is a line plus a few bytes.
    Shapes.push_back({"UnalignedStencil",
                      {{8, 3 * Footprint(1000, 90000) + 1, 3, false, 8},
                       {4, 5 * Footprint(100, 9000) + 3, 5, true, 4},
                       {8, 64 + Footprint(1, 63), 1, false, 8}},
                      Iterations()});
  }
  return Shapes;
}

/// L1 variants a repeat skip must respect: Nehalem with a 2-way L1,
/// fewer ways than most repeat shapes touch per iteration, and Sandy
/// Bridge with 32-byte L1 lines, on which a run is shorter than on the
/// 64-byte lines beside it.
std::vector<Machine> repeatMachines() {
  Machine TwoWay = makeNehalem();
  TwoWay.Name = "Nehalem with a 2-way L1";
  TwoWay.CacheLevels[0].Associativity = 2;
  Machine HalfLines = makeSandyBridge();
  HalfLines.Name = "Sandy Bridge with 32-byte L1 lines";
  HalfLines.CacheLevels[0].LineBytes = 32;
  return {TwoWay, HalfLines};
}

} // namespace

TEST(MemoryBehavior, SmallFootprintStaysInL1) {
  Machine M = makeNehalem();
  std::vector<StreamBehavior> B =
      sampleMemoryBehavior({stream(8, 8 * 1024)}, M, 1 << 20);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_GT(B[0].ServedFraction[0], 0.95);
}

TEST(MemoryBehavior, HugeFootprintStreamsFromMemory) {
  Machine M = makeNehalem();
  std::vector<StreamBehavior> B =
      sampleMemoryBehavior({stream(8, 256ull << 20)}, M, 1 << 22);
  // One DP element in eight starts a new line, which comes from DRAM.
  EXPECT_NEAR(B[0].ServedFraction[3], 0.125, 0.02);
  EXPECT_NEAR(B[0].ServedFraction[0], 0.875, 0.02);
}

TEST(MemoryBehavior, MidFootprintServedByL3) {
  Machine M = makeNehalem();
  // 4 MB fits L3 (12 MB) but not L2 (256 KB).
  std::vector<StreamBehavior> B =
      sampleMemoryBehavior({stream(8, 4ull << 20)}, M, 1 << 22);
  EXPECT_NEAR(B[0].ServedFraction[2], 0.125, 0.02);
  EXPECT_LT(B[0].ServedFraction[3], 0.01);
}

TEST(MemoryBehavior, ZeroStrideAlwaysHits) {
  Machine M = makeNehalem();
  std::vector<StreamBehavior> B =
      sampleMemoryBehavior({stream(0, 64)}, M, 1 << 20);
  EXPECT_GT(B[0].ServedFraction[0], 0.99);
}

TEST(MemoryBehavior, NegativeStrideWorks) {
  Machine M = makeNehalem();
  std::vector<StreamBehavior> B =
      sampleMemoryBehavior({stream(-8, 64ull << 20)}, M, 1 << 22);
  EXPECT_NEAR(B[0].ServedFraction[3], 0.125, 0.02);
}

TEST(MemoryBehavior, LargeStrideMissesEveryAccess) {
  Machine M = makeNehalem();
  // 4 KB stride over 64 MB: every access opens a new line from DRAM.
  std::vector<StreamBehavior> B =
      sampleMemoryBehavior({stream(4096, 64ull << 20)}, M, 1 << 20);
  EXPECT_GT(B[0].ServedFraction[3], 0.9);
  EXPECT_FALSE(B[0].Prefetchable);
}

TEST(MemoryBehavior, SmallStridePrefetchable) {
  Machine M = makeNehalem();
  std::vector<StreamBehavior> B =
      sampleMemoryBehavior({stream(8, 1 << 20)}, M, 1 << 20);
  EXPECT_TRUE(B[0].Prefetchable);
}

TEST(MemoryBehavior, CachedWrapperMatches) {
  Machine M = makeNehalem();
  std::vector<MemoryStreamDesc> S = {stream(8, 1 << 20)};
  std::vector<StreamBehavior> A = sampleMemoryBehaviorCached(S, M, 1 << 20);
  std::vector<StreamBehavior> B = sampleMemoryBehaviorCached(S, M, 1 << 20);
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(A[0].ServedFraction, B[0].ServedFraction);
}

//===----------------------------------------------------------------------===//
// Bit-identity of the sampler
//===----------------------------------------------------------------------===//

TEST(MemoryBehaviorGolden, ExactServedFractions) {
  // Recorded from the per-set vector LRU with closed-form addresses that
  // preceded the flat rows and the strength-reduced walk; any change to
  // the simulator's decisions moves at least one of these.
  struct Golden {
    const char *Case;
    const char *Machine;
    std::vector<std::vector<double>> Served;
  };
  const Golden Goldens[] = {
      {"ZeroStride", "Nehalem", {{1, 0, 0, 0}, {0.875, 0.125, 0, 0}}},
      {"ZeroStride", "Atom", {{1, 0, 0}, {0.875, 0.125, 0}}},
      {"ZeroStride", "Core 2", {{1, 0, 0}, {0.875, 0.125, 0}}},
      {"ZeroStride", "Sandy Bridge", {{1, 0, 0, 0}, {0.875, 0.125, 0, 0}}},
      {"NegativeStride", "Nehalem", {{0.875, 0, 0.125, 0}, {0, 0, 1, 0}}},
      {"NegativeStride", "Atom", {{0.875, 0, 0.125}, {0, 0.875, 0.125}}},
      {"NegativeStride", "Core 2", {{0.875, 0.125, 0}, {0, 1, 0}}},
      {"NegativeStride", "Sandy Bridge", {{0.875, 0, 0.125, 0}, {0, 0, 1, 0}}},
      {"StrideBeyondFootprint",
       "Nehalem",
       {{1, 0, 0, 0},
        {0, 0, 0.94880333333333333, 0.051196666666666668}}},
      {"StrideBeyondFootprint", "Atom", {{1, 0, 0}, {0, 0, 1}}},
      {"StrideBeyondFootprint",
       "Core 2",
       {{1, 0, 0},
        {0, 0.94880333333333333, 0.051196666666666668}}},
      {"StrideBeyondFootprint",
       "Sandy Bridge",
       {{1, 0, 0, 0},
        {0, 0, 0.94880333333333333, 0.051196666666666668}}},
      {"Stencil",
       "Nehalem",
       {{0.87500075000750011, 0, 0.12499924999249992, 0},
        {0.87498874988749886, 0.026040260402604026, 0.098970989709897095, 0},
        {0.87500375003750042, 0, 0, 0.12499624996249963}}},
      {"Stencil",
       "Atom",
       {{0.87500075000750011, 0, 0.12499924999249992},
        {0.87499874998749982, 0, 0.12500125001250012},
        {0.87498874988749886, 0, 0.12501125011250114}}},
      {"Stencil",
       "Core 2",
       {{0.87500075000750011, 0, 0.12499924999249992},
        {0.87499874998749982, 0.070040700407004067, 0.054960549605496054},
        {0.87498874988749886, 0, 0.12501125011250114}}},
      {"Stencil",
       "Sandy Bridge",
       {{0.87500075000750011, 0, 0.11518915189151892, 0.0098100981009810097},
        {0.87498874988749886, 0.026040260402604026, 0.098970989709897095, 0},
        {0.87500375003750042, 0, 0, 0.12499624996249963}}},
      {"SubLineFootprint", "Nehalem", {{1, 0, 0, 0}, {1, 0, 0, 0}}},
      {"SubLineFootprint", "Atom", {{1, 0, 0}, {1, 0, 0}}},
      {"SubLineFootprint", "Core 2", {{1, 0, 0}, {1, 0, 0}}},
      {"SubLineFootprint", "Sandy Bridge", {{1, 0, 0, 0}, {1, 0, 0, 0}}},
      {"ShortRun", "Nehalem", {{0.876, 0, 0, 0.124}, {0, 0, 0, 1}}},
      {"ShortRun", "Atom", {{0.876, 0, 0.124}, {0, 0, 1}}},
      {"ShortRun", "Core 2", {{0.876, 0, 0.124}, {0, 0, 1}}},
      {"ShortRun", "Sandy Bridge", {{0.876, 0, 0, 0.124}, {0, 0, 0, 1}}},
      {"SingleIteration", "Nehalem", {{0, 0, 0, 1}}},
      {"SingleIteration", "Atom", {{0, 0, 1}}},
      {"SingleIteration", "Core 2", {{0, 0, 1}}},
      {"SingleIteration", "Sandy Bridge", {{0, 0, 0, 1}}},
      {"SetConflicts",
       "Nehalem",
       {{0, 0, 1, 0},
        {0.875, 0, 0.125, 0},
        {0, 0, 1, 0}}},
      {"SetConflicts", "Atom", {{0, 0, 1}, {0.875, 0, 0.125}, {0, 0, 1}}},
      {"SetConflicts",
       "Core 2",
       {{0, 0.79340999999999995, 0.20659},
        {0.875, 0.12305000000000001, 0.0019499999999999999},
        {0, 0.984375, 0.015625}}},
      {"SetConflicts",
       "Sandy Bridge",
       {{0, 0, 1, 0},
        {0.875, 0, 0.125, 0},
        {0, 0, 1, 0}}},
      {"PartialResidency",
       "Nehalem",
       {{0.875, 0, 0.125, 0},
        {0.87526388888888884, 0.0025805555555555556, 0.12215555555555556, 0},
        {0.62583333333333335, 0.0044666666666666665, 0.36969999999999997, 0}}},
      {"PartialResidency",
       "Atom",
       {{0.875, 0, 0.125},
        {0.875, 0, 0.125},
        {0.625, 0, 0.375}}},
      {"PartialResidency",
       "Core 2",
       {{0.875, 0.125, 0},
        {0.87526388888888884, 0.12473611111111112, 0},
        {0.62583333333333335, 0.014075000000000001, 0.36009166666666664}}},
      {"PartialResidency",
       "Sandy Bridge",
       {{0.875, 0, 0.125, 0},
        {0.87526388888888884, 0.0025805555555555556, 0.12215555555555556, 0},
        {0.62583333333333335, 0.0044666666666666665, 0.36969999999999997, 0}}},
      {"PastLastLevel",
       "Nehalem",
       {{0.87498395819965169, 0, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0, 0.12501604180034834},
        {0.87500229168576404, 0, 0, 0.12499770831423596},
        {0.87499705354687485, 0, 0, 0.12500294645312521}}},
      {"PastLastLevel",
       "Atom",
       {{0.87498395819965169, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0.12501604180034834},
        {0.87500229168576404, 0, 0.12499770831423596},
        {0.87499705354687485, 0, 0.12500294645312521}}},
      {"PastLastLevel",
       "Core 2",
       {{0.87498395819965169, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0.12501604180034834},
        {0.87500229168576404, 0, 0.12499770831423596},
        {0.87499705354687485, 0, 0.12500294645312521}}},
      {"PastLastLevel",
       "Sandy Bridge",
       {{0.87498395819965169, 0, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0, 0.12501604180034834},
        {0.87498395819965169, 0, 0, 0.12501604180034834},
        {0.87500229168576404, 0, 0, 0.12499770831423596},
        {0.87499705354687485, 0, 0, 0.12500294645312521}}},
  };
  for (const Golden &G : Goldens) {
    const GoldenCase *C = nullptr;
    for (const GoldenCase &Candidate : goldenCases())
      if (std::string(Candidate.Name) == G.Case)
        C = &Candidate;
    ASSERT_NE(C, nullptr) << G.Case;
    for (const Machine &M : paperMachines()) {
      if (M.Name != G.Machine)
        continue;
      EXPECT_EQ(servedFractions(sampleMemoryBehavior(C->Streams, M,
                                                     C->TotalIterations)),
                G.Served)
          << G.Case << " on " << G.Machine;
    }
  }
}

TEST(MemoryBehaviorGolden, MatchesClosedFormWalk) {
  // Seeded random shapes, including zero, negative and footprint-sized
  // strides, stencils and short runs, against the closed-form oracle.
  const std::vector<GoldenCase> Shapes = seededShapes();
  for (std::size_t I = 0; I < Shapes.size(); ++I) {
    const std::vector<MemoryStreamDesc> &Streams = Shapes[I].Streams;
    std::uint64_t Iterations = Shapes[I].TotalIterations;
    for (const Machine &M : paperMachines())
      EXPECT_EQ(servedFractions(sampleMemoryBehavior(Streams, M, Iterations)),
                closedFormServedFractions(Streams, M, Iterations))
          << "shape " << I << " on " << M.Name;
  }
  // Shapes full of repeating iterations, also on the L1 variants.
  std::vector<Machine> Machines = paperMachines();
  for (const Machine &M : repeatMachines())
    Machines.push_back(M);
  const std::vector<GoldenCase> Repeats = repeatShapes();
  for (std::size_t I = 0; I < Repeats.size(); ++I) {
    const auto &[Name, Streams, Iterations] = Repeats[I];
    for (const Machine &M : Machines)
      EXPECT_EQ(servedFractions(sampleMemoryBehavior(Streams, M, Iterations)),
                closedFormServedFractions(Streams, M, Iterations))
          << "repeat shape " << I << " (" << Name << ") on " << M.Name;
  }
}

TEST(MemoryBehaviorGolden, SharedWalkMatchesEachMachine) {
  // One walk for many machines must give each machine exactly what the
  // closed-form walk gives it alone.  Beside the paper machines:
  //  - Nehalem cut down to its L1, which ends at a node the others
  //    continue below;
  //  - Core 2 with a 1 MiB L2, whose warm-up a 20 MiB stream caps where
  //    Nehalem's and Sandy Bridge's is not, so the windows differ;
  //  - a duplicate Sandy Bridge, which shares every node;
  //  - Sandy Bridge with a 4-way L2 of Nehalem's L2 size, which must
  //    not share Nehalem's 8-way L2;
  //  - repeatMachines(): a 2-way L1 and an L1 with 32-byte lines, each
  //    beside the 64-byte, 6- and 8-way L1s.
  std::vector<Machine> Machines = paperMachines();
  Machine L1Only = makeNehalem();
  L1Only.Name = "Nehalem L1 only";
  L1Only.CacheLevels.resize(1);
  Machine SmallCore2 = makeCore2();
  SmallCore2.Name = "Core 2 with a 1 MiB L2";
  SmallCore2.CacheLevels[1].SizeBytes = 1 << 20;
  Machine Copy = makeSandyBridge();
  Copy.Name = "Sandy Bridge copy";
  Machine FourWayL2 = makeSandyBridge();
  FourWayL2.Name = "Sandy Bridge with a 4-way L2";
  FourWayL2.CacheLevels[1].Associativity = 4;
  for (Machine M : {L1Only, SmallCore2, Copy, FourWayL2})
    Machines.push_back(M);
  for (const Machine &M : repeatMachines())
    Machines.push_back(M);

  std::vector<GoldenCase> Shapes = goldenCases();
  for (const GoldenCase &Seeded : seededShapes())
    Shapes.push_back(Seeded);
  for (const GoldenCase &Repeat : repeatShapes())
    Shapes.push_back(Repeat);
  GoldenCase TwentyMiB = {"TwentyMiB", {stream(8, 20 << 20)}, 1 << 22};
  TwentyMiB.Streams.push_back({8, 64 << 10, 2, true, 8});
  Shapes.push_back(TwentyMiB);

  std::vector<const Machine *> Forward;
  for (const Machine &M : Machines)
    Forward.push_back(&M);
  std::vector<const Machine *> Reversed(Forward.rbegin(), Forward.rend());
  // And every machine but the 2-way L1, which caps how many lines an
  // iteration of a walk it shares may touch and still repeat cheaply.
  std::vector<const Machine *> WideL1s;
  for (const Machine *M : Forward)
    if (M->CacheLevels[0].Associativity > 2)
      WideL1s.push_back(M);
  for (std::size_t S = 0; S < Shapes.size(); ++S) {
    const auto &[Name, Streams, Iterations] = Shapes[S];
    SCOPED_TRACE("shape " + std::to_string(S) + " (" + Name + ")");
    std::vector<std::vector<std::vector<double>>> Expected;
    for (const Machine &M : Machines)
      Expected.push_back(closedFormServedFractions(Streams, M, Iterations));
    for (const std::vector<const Machine *> *Set :
         {&Forward, &Reversed, &WideL1s}) {
      const std::vector<const Machine *> &Order = *Set;
      auto Shared = sampleMemoryBehavior(Streams, Order, Iterations);
      ASSERT_EQ(Shared.size(), Order.size());
      for (std::size_t I = 0; I < Order.size(); ++I) {
        const auto M = static_cast<std::size_t>(Order[I] - Machines.data());
        EXPECT_EQ(servedFractions(Shared[I]), Expected[M]) << Order[I]->Name;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The memory-behaviour memo
//===----------------------------------------------------------------------===//

TEST(MemoryBehaviorMemo, KeyedByCacheContentNotName) {
  // A machine edited under the same name must not reuse the original's
  // behaviour: a 4 MiB stream lives in Nehalem's 12 MiB L3 but streams
  // from DRAM past a 1 MiB one.
  std::vector<MemoryStreamDesc> S = {stream(8, 4ull << 20)};
  Machine Original = makeNehalem();
  Machine Edited = makeNehalem();
  Edited.CacheLevels.back().SizeBytes = 1ull << 20;
  ASSERT_EQ(Edited.Name, Original.Name);

  std::vector<StreamBehavior> OnOriginal =
      sampleMemoryBehaviorCached(S, Original, 1 << 22);
  std::vector<StreamBehavior> OnEdited =
      sampleMemoryBehaviorCached(S, Edited, 1 << 22);
  EXPECT_EQ(servedFractions(OnEdited),
            servedFractions(sampleMemoryBehavior(S, Edited, 1 << 22)));
  EXPECT_NE(servedFractions(OnEdited), servedFractions(OnOriginal));
}

TEST(MemoryBehaviorMemo, RacingCallersSampleOnce) {
  // Eight threads ask for one fresh key at once.  Each either hits or
  // samples it, the first insert wins, and everyone gets the one-machine
  // sampler's answer; a later call finds the key memoized once.
  std::vector<MemoryStreamDesc> S = {stream(8, 3ull << 20),
                                     stream(-24, (5ull << 20) + 4096, true)};
  Machine M = makeSandyBridge();
  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();
  constexpr unsigned kThreads = 8;
  std::vector<std::vector<std::vector<double>>> Results(kThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      Results[T] = servedFractions(sampleMemoryBehaviorCached(S, M, 777777));
    });
  for (std::thread &T : Threads)
    T.join();
  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  sampleMemoryBehaviorCached(S, M, 777777);
  EXPECT_EQ(obs::counterTotal("sim.sample.hits"), 1u);
  obs::setEnabled(false);

  EXPECT_GE(counter(Snap, "sim.sample.misses"), 1u);
  EXPECT_EQ(counter(Snap, "sim.sample.hits") +
                counter(Snap, "sim.sample.misses"),
            kThreads);
  for (unsigned T = 0; T < kThreads; ++T)
    EXPECT_EQ(Results[T], servedFractions(sampleMemoryBehavior(S, M, 777777)))
        << "thread " << T;
}

TEST(MemoryBehaviorMemo, FailedSamplingReachesEveryCallerAndMemoizesNothing) {
  // A level too large to allocate makes sampling throw.  Every racing
  // caller must see the exception, and the failure must not be
  // memoized: a later call samples again.
  Machine M = makeNehalem();
  M.CacheLevels.back() = {"L3", std::uint64_t(1) << 62, 1u << 30, 2, 40.0,
                          8.0};
  std::vector<MemoryStreamDesc> S = {stream(8, 1 << 20)};
  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();
  std::atomic<unsigned> Threw{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&] {
      try {
        sampleMemoryBehaviorCached(S, M, 1 << 20);
      } catch (const std::length_error &) {
        ++Threw;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::uint64_t MissesAfterRace = obs::counterTotal("sim.sample.misses");
  EXPECT_THROW(sampleMemoryBehaviorCached(S, M, 1 << 20), std::length_error);
  std::uint64_t MissesAfterRetry = obs::counterTotal("sim.sample.misses");
  obs::setEnabled(false);

  EXPECT_EQ(Threw.load(), 8u);
  EXPECT_EQ(MissesAfterRace, 8u);
  EXPECT_EQ(MissesAfterRetry, MissesAfterRace + 1);
}

/// Pointers to each of \p Machines, for the multi-machine entry points.
std::vector<const Machine *> pointersTo(const std::vector<Machine> &Machines) {
  std::vector<const Machine *> Out;
  for (const Machine &M : Machines)
    Out.push_back(&M);
  return Out;
}

std::uint64_t walks(const obs::MetricsSnapshot &Snap) {
  auto It = Snap.Histograms.find("sim.sample.walk");
  return It == Snap.Histograms.end() ? 0 : It->second.Count;
}

TEST(MemoryBehavior, WalkCountsItsSkippedIterations) {
  // An 8-byte stride touches each 64-byte line on eight iterations in a
  // row, so the walk simulates the first and skips the rest; a 128-byte
  // stride touches a new line every iteration and skips none.
  const std::vector<Machine> Machines = paperMachines();
  const std::vector<const Machine *> All = pointersTo(Machines);
  auto Walk = [&All](std::int64_t Stride) {
    obs::MetricsRegistry::global().reset();
    sampleMemoryBehavior({stream(Stride, 4 << 20)}, All, 1 << 20);
    obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
    return std::pair(counter(Snap, "sim.walk.iterations"),
                     counter(Snap, "sim.walk.skipped_iterations"));
  };
  obs::setEnabled(true);
  const auto [Iterations8, Skipped8] = Walk(8);
  const auto [Iterations128, Skipped128] = Walk(128);
  obs::setEnabled(false);

  EXPECT_GT(Iterations8, 0u);
  EXPECT_GE(Skipped8 * 10, Iterations8 * 8);
  EXPECT_GT(Iterations128, 0u);
  EXPECT_EQ(Skipped128, 0u);
}

TEST(MemoryBehavior, SimulatedAccessesDiscountSkippedIterations) {
  // A 4 MiB stream over 2^20 iterations: Nehalem's, Core 2's and Sandy
  // Bridge's windows halve the iterations (524,288 each) and end last.
  // An 8-byte stride enters a new 64-byte line every eighth iteration,
  // so a walk simulates about one iteration in eight.  At 128 bytes the
  // windows end at 33,793 + 600,000 and no iteration is skipped, nor
  // any of an iteration with seven touches, past Atom's six L1 ways.
  const std::vector<Machine> Machines = paperMachines();
  const std::vector<const Machine *> All = pointersTo(Machines);
  EXPECT_EQ(simulatedAccesses({{stream(8, 4 << 20)}, 1 << 20}, All),
            (1u << 20) / 8);
  EXPECT_EQ(simulatedAccesses({{stream(128, 4 << 20)}, 1 << 20}, All),
            633793u);
  const MemoryTrace Seven = {{{8, 4 << 20, 7, false, 8}}, 1 << 20};
  EXPECT_EQ(simulatedAccesses(Seven, All) % 7, 0u);
  EXPECT_GT(simulatedAccesses(Seven, All), 7u * 100000);
}

TEST(MemoryBehaviorMemo, MultiMachineCallSamplesOnlyMissingKeys) {
  // With Atom's key memoized, priming all four machines finds it and
  // samples the other three in one walk; each machine's one-machine call
  // then hits, with the one-machine sampler's answer.
  std::vector<MemoryStreamDesc> S = {stream(16, 5ull << 20),
                                     stream(-8, 700 << 10, true)};
  const std::vector<Machine> Machines = paperMachines();
  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();
  sampleMemoryBehaviorCached(S, makeAtom(), 424242);
  obs::MetricsRegistry::global().reset();
  primeMemoryBehavior(S, pointersTo(Machines), 424242);
  obs::MetricsSnapshot Primed = obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  std::vector<std::vector<std::vector<double>>> Served;
  for (const Machine &M : Machines)
    Served.push_back(servedFractions(sampleMemoryBehaviorCached(S, M, 424242)));
  obs::MetricsSnapshot Hit = obs::MetricsRegistry::global().snapshot();
  obs::setEnabled(false);

  EXPECT_EQ(counter(Primed, "sim.sample.misses"), 3u);
  EXPECT_EQ(counter(Primed, "sim.sample.hits"), 1u);
  EXPECT_EQ(walks(Primed), 1u);
  EXPECT_EQ(counter(Hit, "sim.sample.hits"), Machines.size());
  EXPECT_EQ(walks(Hit), 0u);
  for (std::size_t I = 0; I < Machines.size(); ++I)
    EXPECT_EQ(Served[I],
              servedFractions(sampleMemoryBehavior(S, Machines[I], 424242)))
        << Machines[I].Name;
}

TEST(MemoryBehaviorMemo, RacingMultiMachineCallsSampleEachKeyOnce) {
  // Eight threads prime the same four fresh keys at once.  Each key is
  // a hit or a miss per call, the first insert wins, and the memo holds
  // each machine's answer once: a later call of each machine hits it.
  std::vector<MemoryStreamDesc> S = {stream(24, 9ull << 20),
                                     stream(8, 300 << 10, true)};
  const std::vector<Machine> Machines = paperMachines();
  const std::vector<const Machine *> All = pointersTo(Machines);
  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();
  constexpr unsigned kThreads = 8;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&] { primeMemoryBehavior(S, All, 565656); });
  for (std::thread &T : Threads)
    T.join();
  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  for (const Machine &M : Machines)
    EXPECT_EQ(servedFractions(sampleMemoryBehaviorCached(S, M, 565656)),
              servedFractions(sampleMemoryBehavior(S, M, 565656)))
        << M.Name;
  EXPECT_EQ(obs::counterTotal("sim.sample.hits"), Machines.size());
  obs::setEnabled(false);

  EXPECT_GE(counter(Snap, "sim.sample.misses"), Machines.size());
  EXPECT_EQ(counter(Snap, "sim.sample.hits") +
                counter(Snap, "sim.sample.misses"),
            kThreads * Machines.size());
}

TEST(MemoryBehaviorMemo, MultiMachineFailureMemoizesNothing) {
  // Sandy Bridge's L3 made too large to allocate fails the whole walk.
  // Every racing caller must see the exception, and none of the call's
  // keys may stay memoized: the three healthy machines sample afresh.
  std::vector<MemoryStreamDesc> S = {stream(8, 3ull << 20),
                                     stream(72, 1ull << 20, true)};
  std::vector<Machine> Machines = paperMachines();
  Machine &M = Machines[3];
  M.CacheLevels.back() = {"L3", std::uint64_t(1) << 62, 1u << 30, 2, 40.0,
                          8.0};
  const std::vector<const Machine *> All = pointersTo(Machines);
  obs::setEnabled(true);
  obs::MetricsRegistry::global().reset();
  std::atomic<unsigned> Threw{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&] {
      try {
        primeMemoryBehavior(S, All, 1 << 20);
      } catch (const std::length_error &) {
        ++Threw;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Threw.load(), 8u);

  obs::MetricsRegistry::global().reset();
  const std::vector<const Machine *> Healthy(All.begin(), All.begin() + 3);
  EXPECT_NO_THROW(primeMemoryBehavior(S, Healthy, 1 << 20));
  obs::MetricsSnapshot Snap = obs::MetricsRegistry::global().snapshot();
  obs::setEnabled(false);
  EXPECT_EQ(counter(Snap, "sim.sample.misses"), 3u);
  EXPECT_EQ(counter(Snap, "sim.sample.hits"), 0u);
  for (std::size_t I = 0; I < 3; ++I)
    EXPECT_EQ(
        servedFractions(sampleMemoryBehaviorCached(S, Machines[I], 1 << 20)),
        servedFractions(sampleMemoryBehavior(S, Machines[I], 1 << 20)))
        << Machines[I].Name;
}

TEST(Executor, Deterministic) {
  Codelet C = triad(1 << 20);
  ExecutionRequest R;
  Measurement A = execute(C, makeNehalem(), R);
  Measurement B = execute(C, makeNehalem(), R);
  EXPECT_DOUBLE_EQ(A.TrueSeconds, B.TrueSeconds);
  EXPECT_DOUBLE_EQ(A.MeasuredSeconds, B.MeasuredSeconds);
}

TEST(Executor, MeasuredCloseToTrue) {
  Codelet C = triad(1 << 21);
  Measurement M = execute(C, makeNehalem(), {});
  EXPECT_GT(M.TrueSeconds, 0.0);
  EXPECT_NEAR(M.MeasuredSeconds / M.TrueSeconds, 1.0, 0.15);
}

TEST(Executor, LargerDatasetTakesLonger) {
  Codelet C = triad(1 << 21);
  ExecutionRequest Small;
  Small.DatasetScale = 0.5;
  ExecutionRequest Large;
  Large.DatasetScale = 2.0;
  double TSmall = execute(C, makeNehalem(), Small).TrueSeconds;
  double TLarge = execute(C, makeNehalem(), Large).TrueSeconds;
  EXPECT_GT(TLarge, 2.0 * TSmall);
}

TEST(Executor, MachineOrderingOnComputeKernel) {
  Codelet C = computeHeavy();
  double NH = execute(C, makeNehalem(), {}).TrueSeconds;
  double Atom = execute(C, makeAtom(), {}).TrueSeconds;
  double C2 = execute(C, makeCore2(), {}).TrueSeconds;
  double SB = execute(C, makeSandyBridge(), {}).TrueSeconds;
  // Compute bound: frequency and core width dominate.
  EXPECT_GT(Atom, NH); // Atom slowest.
  EXPECT_LT(C2, NH);   // Core 2 wins on frequency.
  EXPECT_LT(SB, NH);   // Sandy Bridge fastest or near.
}

TEST(Executor, MemoryBoundSlowerOnCore2) {
  // Streaming kernel beyond every cache: Core 2's FSB loses to Nehalem.
  Codelet C = triad(16 << 20);
  double NH = execute(C, makeNehalem(), {}).TrueSeconds;
  double C2 = execute(C, makeCore2(), {}).TrueSeconds;
  EXPECT_GT(C2, NH);
}

TEST(Executor, CountersConsistent) {
  Codelet C = triad(1 << 21);
  Measurement M = execute(C, makeNehalem(), {});
  const PerfCounters &Ctr = M.Counters;
  EXPECT_GT(Ctr.Cycles, 0.0);
  EXPECT_GT(Ctr.Uops, 0.0);
  EXPECT_GT(Ctr.FpOpsDP, 0.0);
  EXPECT_DOUBLE_EQ(Ctr.FpOpsSP, 0.0);
  EXPECT_GT(Ctr.L1Accesses, 0.0);
  // The cache pyramid: lines entering L1 >= lines from L3 >= from DRAM.
  EXPECT_GE(Ctr.L2LinesIn, Ctr.L3LinesIn);
  EXPECT_GE(Ctr.L3LinesIn, Ctr.MemLinesIn);
  EXPECT_GT(Ctr.LoadBytes, 0.0);
  EXPECT_GT(Ctr.StoreBytes, 0.0);
  EXPECT_DOUBLE_EQ(Ctr.Seconds, M.TrueSeconds);
}

TEST(Executor, WarmReplayOnlyAffectsFlaggedCodelets) {
  Codelet Plain = triad(256 << 20 >> 3); // 32M elements, streaming.
  ExecutionRequest Cold;
  ExecutionRequest Warm;
  Warm.WarmCacheReplay = true;
  double PlainCold = execute(Plain, makeAtom(), Cold).TrueSeconds;
  double PlainWarm = execute(Plain, makeAtom(), Warm).TrueSeconds;
  EXPECT_DOUBLE_EQ(PlainCold, PlainWarm);

  Codelet Flagged = triad(256 << 20 >> 3);
  Flagged.Traits.CacheStateSensitive = true;
  double FlaggedCold = execute(Flagged, makeAtom(), Cold).TrueSeconds;
  double FlaggedWarm = execute(Flagged, makeAtom(), Warm).TrueSeconds;
  EXPECT_LT(FlaggedWarm, FlaggedCold);
}

TEST(Executor, WarmReplayNegligibleOnBigCacheMachines) {
  Codelet Flagged = triad(1 << 21); // 16 MB streams.
  Flagged.Traits.CacheStateSensitive = true;
  ExecutionRequest Cold;
  ExecutionRequest Warm;
  Warm.WarmCacheReplay = true;
  double NHCold = execute(Flagged, makeNehalem(), Cold).TrueSeconds;
  double NHWarm = execute(Flagged, makeNehalem(), Warm).TrueSeconds;
  // Footprint/LLC ratio is tiny on Nehalem: no warm-replay advantage.
  EXPECT_NEAR(NHWarm / NHCold, 1.0, 1e-9);
}

TEST(Executor, StandaloneCompilationChangesContextSensitiveTime) {
  Codelet C = triad(1 << 21);
  C.Traits.CompilationContextSensitive = true;
  ExecutionRequest InApp;
  ExecutionRequest Alone;
  Alone.Context = CompilationContext::Standalone;
  double TIn = execute(C, makeNehalem(), InApp).TrueSeconds;
  double TAlone = execute(C, makeNehalem(), Alone).TrueSeconds;
  // Vectorization lost standalone: must be slower.
  EXPECT_GT(TAlone, TIn);
}

TEST(Executor, ShortCodeletsNoisier) {
  // The noise model must hurt microsecond-scale codelets more than
  // 100 ms ones.  Compare relative measured/true spread across scales.
  Codelet Short = triad(1 << 14);
  Codelet Long = triad(1 << 24);
  Measurement MS = execute(Short, makeNehalem(), {});
  Measurement ML = execute(Long, makeNehalem(), {});
  double ShortDev = std::abs(MS.MeasuredSeconds / MS.TrueSeconds - 1.0);
  double LongDev = std::abs(ML.MeasuredSeconds / ML.TrueSeconds - 1.0);
  // Not a strict per-draw guarantee, but the probe overhead alone makes
  // the short codelet's relative deviation larger.
  EXPECT_GT(ShortDev + 1e-12, LongDev * 0.01);
  EXPECT_GT(MS.MeasuredSeconds, MS.TrueSeconds * 0.8);
}
