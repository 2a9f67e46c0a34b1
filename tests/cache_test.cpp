//===- tests/cache_test.cpp - Set-associative LRU cache simulator ---------===//

#include "fgbs/sim/Cache.h"

#include "fgbs/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace fgbs;

namespace {

CacheLevelConfig smallCache(std::uint64_t SizeBytes, unsigned Assoc) {
  return {"T", SizeBytes, Assoc, 64, 4.0, 16.0};
}

/// The straightforward LRU level CacheLevel must agree with: one
/// MRU-first tag vector per set, updated by erase + insert.
class ReferenceLru {
public:
  explicit ReferenceLru(const CacheLevelConfig &Config)
      : Ways(Config.Associativity) {
    std::uint64_t Lines = Config.SizeBytes / Config.LineBytes;
    Sets.resize(std::max<std::uint64_t>(1, Lines / Ways));
    while ((1u << LineShift) < Config.LineBytes)
      ++LineShift;
  }

  bool access(std::uint64_t Addr) {
    std::uint64_t Line = Addr >> LineShift;
    std::vector<std::uint64_t> &Set = Sets[Line % Sets.size()];
    auto It = std::find(Set.begin(), Set.end(), Line);
    bool Hit = It != Set.end();
    if (Hit)
      Set.erase(It);
    Set.insert(Set.begin(), Line);
    if (Set.size() > Ways)
      Set.pop_back();
    return Hit;
  }

private:
  unsigned Ways;
  unsigned LineShift = 0;
  std::vector<std::vector<std::uint64_t>> Sets;
};

/// Every cache level of the four paper machines, a one-set level, and
/// a level whose set count is not a power of two (Nehalem's L3 already
/// has 12,288 sets; this one has 3).
std::vector<CacheLevelConfig> differentialLevels() {
  std::vector<CacheLevelConfig> Levels;
  for (const Machine &M : paperMachines())
    for (CacheLevelConfig L : M.CacheLevels) {
      L.Name = M.Name + " " + L.Name;
      Levels.push_back(L);
    }
  Levels.push_back({"one set", 512, 8, 64, 4.0, 16.0});
  Levels.push_back({"three sets", 3 * 4 * 64, 4, 64, 4.0, 16.0});
  return Levels;
}

/// Drives CacheLevel and ReferenceLru with \p Trace; \returns the index
/// of the first access whose hit/miss outcome differs, or -1.
template <typename TraceFn>
long firstDivergence(const CacheLevelConfig &Config, std::uint64_t Accesses,
                     TraceFn Trace) {
  CacheLevel Level(Config);
  ReferenceLru Reference(Config);
  for (std::uint64_t I = 0; I < Accesses; ++I) {
    std::uint64_t Addr = Trace(I);
    if (Level.access(Addr) != Reference.access(Addr))
      return static_cast<long>(I);
  }
  return -1;
}

} // namespace

TEST(CacheLevel, FirstAccessMisses) {
  CacheLevel L(smallCache(1024, 2));
  EXPECT_FALSE(L.access(0));
}

TEST(CacheLevel, SecondAccessHits) {
  CacheLevel L(smallCache(1024, 2));
  EXPECT_FALSE(L.access(128));
  EXPECT_TRUE(L.access(128));
}

TEST(CacheLevel, SameLineHits) {
  CacheLevel L(smallCache(1024, 2));
  L.access(0);
  // Same 64-byte line.
  EXPECT_TRUE(L.access(63));
  // Next line misses.
  EXPECT_FALSE(L.access(64));
}

TEST(CacheLevel, LruEviction) {
  // 2 sets x 2 ways; addresses 0, 128, 256 map to set 0.
  CacheLevel L(smallCache(256, 2));
  L.access(0);
  L.access(128);
  L.access(256); // Evicts line 0 (LRU).
  EXPECT_FALSE(L.access(0)); // Refilling line 0 evicts line 2 (LRU).
  EXPECT_FALSE(L.access(128));
}

TEST(CacheLevel, LruKeepsMostRecentlyUsed) {
  CacheLevel L(smallCache(256, 2));
  L.access(0);
  L.access(128);
  L.access(0);   // 0 becomes MRU; 128 is now LRU.
  L.access(256); // Evicts 128.
  EXPECT_TRUE(L.access(0));
  EXPECT_FALSE(L.access(128));
}

TEST(CacheLevel, AssociativityRespected) {
  // Fully conflicting: 1 set x 4 ways.
  CacheLevel L(smallCache(256, 4));
  for (std::uint64_t I = 0; I < 4; ++I)
    L.access(I * 64);
  unsigned Hits = 0;
  for (std::uint64_t I = 0; I < 4; ++I)
    Hits += L.access(I * 64);
  EXPECT_EQ(Hits, 4u);
}

TEST(CacheLevel, FlushDropsState) {
  CacheLevel L(smallCache(1024, 2));
  L.access(0);
  L.flush();
  EXPECT_FALSE(L.access(0));
}

TEST(CacheLevel, StreamingMissesEveryLine) {
  CacheLevel L(smallCache(4096, 8));
  // Walk far beyond capacity: every new line misses.
  std::uint64_t Misses = 0;
  for (std::uint64_t A = 0; A < 1 << 20; A += 64)
    Misses += !L.access(A);
  EXPECT_EQ(Misses, (1u << 20) / 64);
}

TEST(CacheHierarchy, ServiceLevels) {
  Machine M = makeNehalem();
  CacheHierarchy H(M);
  EXPECT_EQ(H.numLevels(), 3u);
  // Cold access is served by memory.
  EXPECT_EQ(H.access(0), 3u);
  // Now resident everywhere: L1 serves.
  EXPECT_EQ(H.access(0), 0u);
}

TEST(CacheHierarchy, L2ServesAfterL1Eviction) {
  Machine M = makeNehalem();
  CacheHierarchy H(M);
  H.access(0);
  // Thrash L1 (32 KB) without exceeding L2 (256 KB).
  for (std::uint64_t A = 4096; A < 4096 + 64 * 1024; A += 64)
    H.access(A);
  ServiceLevel S = H.access(0);
  EXPECT_GE(S, 1u);
  EXPECT_LE(S, 2u);
}

TEST(CacheHierarchy, WorkingSetWithinL1StaysL1) {
  Machine M = makeNehalem();
  CacheHierarchy H(M);
  // 8 KB working set, repeatedly accessed.
  for (int Pass = 0; Pass < 3; ++Pass)
    for (std::uint64_t A = 0; A < 8192; A += 64)
      H.access(A);
  std::uint64_t L1Hits = 0;
  for (std::uint64_t A = 0; A < 8192; A += 64)
    L1Hits += H.access(A) == 0;
  EXPECT_EQ(L1Hits, 8192u / 64);
}

TEST(CacheHierarchy, AtomHasTwoLevels) {
  CacheHierarchy H(makeAtom());
  EXPECT_EQ(H.numLevels(), 2u);
  EXPECT_EQ(H.access(0), 2u); // DRAM.
}

TEST(CacheHierarchy, FlushEmptiesAllLevels) {
  CacheHierarchy H(makeNehalem());
  H.access(0);
  H.flush();
  EXPECT_EQ(H.access(0), 3u);
}

//===----------------------------------------------------------------------===//
// Differential test: the flat MRU-first rows against a per-set vector LRU
//===----------------------------------------------------------------------===//

TEST(CacheLevelDifferential, SeededRandomTraces) {
  // Half the accesses fall in a hot region smaller than the level (reuse
  // at every LRU depth), half anywhere in twice its capacity (conflict
  // misses and evictions).
  for (const CacheLevelConfig &Config : differentialLevels()) {
    Rng R(0x5eed ^ Config.SizeBytes);
    std::uint64_t Hot = std::max<std::uint64_t>(64, Config.SizeBytes / 2);
    std::uint64_t Cold = 2 * Config.SizeBytes;
    std::uint64_t Accesses = std::min<std::uint64_t>(
        400000, 8 * Config.SizeBytes / Config.LineBytes + 4096);
    EXPECT_EQ(firstDivergence(Config, Accesses,
                              [&](std::uint64_t) {
                                return R.below(2) ? R.below(Hot)
                                                  : R.below(Cold);
                              }),
              -1)
        << Config.Name;
  }
}

TEST(CacheLevelDifferential, StridedTraces) {
  // Positive, negative, sub-line, set-aliasing and odd strides, each
  // wrapping over a footprint around the level's capacity.
  const std::int64_t Strides[] = {8, 64, -72, 4096, 4160, -4096, 1000003};
  for (const CacheLevelConfig &Config : differentialLevels())
    for (std::int64_t Stride : Strides)
      for (std::uint64_t Footprint :
           {Config.SizeBytes / 2, Config.SizeBytes + 4096,
            3 * Config.SizeBytes}) {
        auto Span = static_cast<std::int64_t>(Footprint);
        EXPECT_EQ(firstDivergence(Config, 40000,
                                  [&](std::uint64_t I) {
                                    std::int64_t Off =
                                        static_cast<std::int64_t>(I) * Stride;
                                    return static_cast<std::uint64_t>(
                                        (Off % Span + Span) % Span);
                                  }),
                  -1)
            << Config.Name << " stride " << Stride << " footprint "
            << Footprint;
      }
}

TEST(CacheLevelDifferential, TouchAndFlushMatchReference) {
  // A quarter of the accesses only warm both levels, as a warm-up
  // touch: their outcomes are not compared.  flush() empties the level
  // midway.  The compared accesses must agree one by one, and in total.
  for (const CacheLevelConfig &Config : differentialLevels()) {
    CacheLevel Level(Config);
    ReferenceLru Reference(Config);
    Rng R(0xf105 ^ Config.SizeBytes);
    std::uint64_t Range = 2 * Config.SizeBytes;
    std::uint64_t Hits = 0;
    std::uint64_t ReferenceHits = 0;
    for (int I = 0; I < 20000; ++I) {
      std::uint64_t Addr = R.below(Range);
      if (I == 10000) {
        Level.flush();
        Reference = ReferenceLru(Config);
      }
      if (R.below(4) == 0) {
        Level.access(Addr);
        Reference.access(Addr);
        continue;
      }
      bool Hit = Level.access(Addr);
      bool ReferenceHit = Reference.access(Addr);
      Hits += Hit;
      ReferenceHits += ReferenceHit;
      ASSERT_EQ(Hit, ReferenceHit) << Config.Name << " access " << I;
    }
    EXPECT_EQ(Hits, ReferenceHits) << Config.Name;
  }
}
