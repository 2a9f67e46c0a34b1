//===- fgbs/sim/Cache.h - Trace-driven cache hierarchy ---------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A trace-driven, set-associative, LRU, inclusive multi-level data-cache
/// simulator.  The executor (fgbs/sim/Executor.h) drives its levels with
/// sampled address streams derived from codelet access patterns, one
/// tree of levels for all the machines a trace is sampled on, to
/// classify each stream's steady-state residence level and line traffic;
/// those feed both the memory-time model and the Likwid-like cache
/// counters.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SIM_CACHE_H
#define FGBS_SIM_CACHE_H

#include "fgbs/arch/Machine.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace fgbs {

/// One set-associative LRU cache level.
///
/// The tags live in one flat NumSets x Ways array of 32-bit line
/// numbers, each row ordered most-recently-used first; unused ways hold
/// EmptyWay.  A hit moves its way to the front of the row, a miss shifts
/// the whole row down one way (dropping the LRU line) and inserts at the
/// front -- exactly the decisions of a per-set MRU-first list.
class CacheLevel {
public:
  /// Line numbers (Addr >> log2(LineBytes)) must stay below this bound:
  /// rows store them in 32 bits and EmptyWay takes the top value.
  static constexpr std::uint64_t LineLimit = 0xFFFFFFFFu;

  explicit CacheLevel(const CacheLevelConfig &Config);

  /// Looks up the line containing \p Addr; inserts it on miss.  The
  /// line number must be below LineLimit.
  /// \returns true on hit.
  bool access(std::uint64_t Addr) {
    std::uint64_t Line = Addr >> LineShift;
    assert(Line < LineLimit && "line number does not fit a 32-bit row");
    auto Tag = static_cast<std::uint32_t>(Line);
    std::uint32_t Set = MaskedIndex ? Tag & SetMask : Tag % NumSets;
    std::uint32_t *Way = Tags.data() + std::size_t(Set) * Ways;
    std::uint32_t *const End = Way + Ways;

    // Insert at the MRU slot and shift the row down one way until the
    // line turns up: a hit ends the shift at its old way, a miss shifts
    // the whole row and drops the LRU way (an EmptyWay while the set
    // fills).
    std::uint32_t Carry = Tag;
    for (; Way != End; ++Way) {
      std::uint32_t Old = *Way;
      *Way = Carry;
      if (Old == Tag)
        return true;
      Carry = Old;
    }
    return false;
  }

  /// Drops all cached lines.
  void flush();

  const CacheLevelConfig &config() const { return Config; }

private:
  /// Marks an unused way; no line number below LineLimit equals it.
  static constexpr std::uint32_t EmptyWay = ~std::uint32_t(0);

  /// NumSets rows of Ways line numbers, each most recently used first.
  std::vector<std::uint32_t> Tags;
  unsigned LineShift;
  unsigned Ways;
  unsigned NumSets;
  /// NumSets - 1 when NumSets is a power of two (the set index is then a
  /// mask), else 0 and the index is Line % NumSets.
  std::uint32_t SetMask;
  bool MaskedIndex;
  CacheLevelConfig Config;
};

/// Which level served an access (L1 = 0, ..., Memory = number of levels).
using ServiceLevel = unsigned;

/// An inclusive multi-level hierarchy.
class CacheHierarchy {
public:
  explicit CacheHierarchy(const Machine &M);

  /// Performs one access; \returns the index of the level that served it
  /// (numLevels() for DRAM).  Stores allocate like loads (write-allocate,
  /// write-back approximation).
  ServiceLevel access(std::uint64_t Addr);

  /// Number of cache levels.
  unsigned numLevels() const { return static_cast<unsigned>(Levels.size()); }

  /// Drops all cached state.
  void flush();

private:
  std::vector<CacheLevel> Levels;
};

} // namespace fgbs

#endif // FGBS_SIM_CACHE_H
