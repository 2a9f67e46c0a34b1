//===- fgbs/sim/Cache.cpp - Trace-driven cache hierarchy ------------------===//

#include "fgbs/sim/Cache.h"

#include <algorithm>

using namespace fgbs;

static unsigned log2Floor(std::uint64_t Value) {
  assert(Value > 0 && "log2 of zero");
  unsigned Result = 0;
  while (Value >>= 1)
    ++Result;
  return Result;
}

CacheLevel::CacheLevel(const CacheLevelConfig &Config)
    : Ways(Config.Associativity), Config(Config) {
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

void CacheHierarchy::flush() {
  for (CacheLevel &L : Levels)
    L.flush();
}
