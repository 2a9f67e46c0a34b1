//===- fgbs/sim/Cache.cpp - Trace-driven cache hierarchy ------------------===//

#include "fgbs/sim/Cache.h"

#include <algorithm>
#include <cassert>

using namespace fgbs;

static unsigned log2Floor(std::uint64_t Value) {
  assert(Value > 0 && "log2 of zero");
  unsigned Result = 0;
  while (Value >>= 1)
    ++Result;
  return Result;
}

CacheLevel::CacheLevel(const CacheLevelConfig &Config) : Config(Config) {
  assert(Config.LineBytes >= 2 &&
         (Config.LineBytes & (Config.LineBytes - 1)) == 0 &&
         "line size must be a power of two of at least two bytes");
  assert(Config.Associativity > 0 && "associativity must be positive");
  std::uint64_t Lines = Config.SizeBytes / Config.LineBytes;
  NumSets = static_cast<unsigned>(
      std::max<std::uint64_t>(1, Lines / Config.Associativity));
  LineShift = log2Floor(Config.LineBytes);
  MaskedIndex = (NumSets & (NumSets - 1)) == 0;
  SetMask = MaskedIndex ? NumSets - 1 : 0;
  Tags.assign(static_cast<std::size_t>(NumSets) * Config.Associativity,
              EmptyWay);
}

// The way loop below is the simulator's hottest loop, and its speed
// depends on where it lands relative to 64-byte code boundaries: with
// the function placed wherever the preceding objects' sizes left it,
// cold training moved by about 15% when unrelated code elsewhere in the
// library grew.  Pinning the function's start fixes the loop's placement.
[[gnu::aligned(64)]] bool CacheLevel::lookupAndFill(std::uint64_t Addr,
                                                   bool CountReference) {
  std::uint64_t Line = Addr >> LineShift;
  std::uint64_t Set = MaskedIndex ? Line & SetMask : Line % NumSets;
  unsigned Ways = Config.Associativity;
  std::uint64_t *Row = Tags.data() + Set * Ways;

  // Insert at the MRU slot and shift the row down one way until the line
  // turns up: a hit ends the shift at its old way, a miss shifts the
  // whole row and drops the LRU way (an EmptyWay while the set fills).
  std::uint64_t Carry = Line;
  for (unsigned Way = 0; Way < Ways; ++Way) {
    std::uint64_t Tag = Row[Way];
    Row[Way] = Carry;
    if (Tag == Line) {
      if (CountReference)
        ++Hits;
      return true;
    }
    Carry = Tag;
  }
  if (CountReference)
    ++Misses;
  return false;
}

bool CacheLevel::access(std::uint64_t Addr) {
  return lookupAndFill(Addr, /*CountReference=*/true);
}

void CacheLevel::touch(std::uint64_t Addr) {
  lookupAndFill(Addr, /*CountReference=*/false);
}

void CacheLevel::flush() { std::fill(Tags.begin(), Tags.end(), EmptyWay); }

CacheHierarchy::CacheHierarchy(const Machine &M) {
  assert(!M.CacheLevels.empty() && "machine without caches");
  Levels.reserve(M.CacheLevels.size());
  for (const CacheLevelConfig &Config : M.CacheLevels)
    Levels.emplace_back(Config);
}

ServiceLevel CacheHierarchy::access(std::uint64_t Addr) {
  // Inclusive hierarchy: probe top-down, fill every missing level.
  ServiceLevel Served = numLevels();
  for (unsigned L = 0; L < numLevels(); ++L) {
    if (Levels[L].access(Addr)) {
      Served = L;
      break;
    }
  }
  return Served;
}

void CacheHierarchy::resetCounters() {
  for (CacheLevel &L : Levels)
    L.resetCounters();
}

void CacheHierarchy::flush() {
  for (CacheLevel &L : Levels)
    L.flush();
}
