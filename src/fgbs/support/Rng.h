//===- fgbs/support/Rng.h - Deterministic random numbers -------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic pseudo-random number generation used across the project.
///
/// All stochastic components (genetic algorithm, measurement-noise model,
/// random clusterings of Figure 7) draw from explicitly seeded generators so
/// every experiment is exactly reproducible run to run.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SUPPORT_RNG_H
#define FGBS_SUPPORT_RNG_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace fgbs {

/// Mixes a 64-bit value into a well-distributed 64-bit value (SplitMix64
/// finalizer).  Used both for seeding and for stateless hashing of
/// experiment identifiers into noise seeds.
std::uint64_t splitMix64(std::uint64_t &State);

/// Stateless variant: hash \p Value through one SplitMix64 step.
std::uint64_t hashU64(std::uint64_t Value);

/// Combines two 64-bit values into one hash (order sensitive).
std::uint64_t hashCombine(std::uint64_t A, std::uint64_t B);

/// Hashes a string into a 64-bit seed (FNV-1a followed by SplitMix64).
std::uint64_t hashString(const char *Str);

/// xoshiro256** generator: fast, high-quality, 256-bit state.
///
/// This is the single RNG implementation used throughout FGBS.  It is
/// seeded from a 64-bit value expanded through SplitMix64, per the
/// reference implementation guidance.
class Rng {
public:
  explicit Rng(std::uint64_t Seed);

  /// Returns the next raw 64-bit output.
  std::uint64_t nextU64() {
    std::uint64_t Result = std::rotl(State[1] * 5, 7) * 9;
    std::uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = std::rotl(State[3], 45);
    return Result;
  }

  /// Returns a double uniformly distributed in [0, 1).
  double uniform() {
    // 53 high bits give a uniform double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
  }

  /// Returns a double uniformly distributed in [\p Lo, \p Hi).
  double uniformIn(double Lo, double Hi);

  /// Returns an integer uniformly distributed in [0, \p Bound).
  /// \p Bound must be positive.
  std::uint64_t below(std::uint64_t Bound);

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool bernoulli(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return uniform() < P;
  }

  /// Returns a sample from the standard normal distribution
  /// (Box-Muller; one value cached).
  double normal();

  /// Returns a sample from N(\p Mean, \p Sigma^2).
  double normal(double Mean, double Sigma);

  /// Fisher-Yates shuffle of \p Values.
  template <typename T> void shuffle(std::vector<T> &Values) {
    if (Values.size() < 2)
      return;
    for (std::size_t I = Values.size() - 1; I > 0; --I) {
      std::size_t J = static_cast<std::size_t>(below(I + 1));
      std::swap(Values[I], Values[J]);
    }
  }

  /// Draws \p Count distinct indices in [0, \p Bound), in random order.
  std::vector<std::size_t> sampleWithoutReplacement(std::size_t Bound,
                                                    std::size_t Count);

private:
  std::uint64_t State[4];
  bool HasCachedNormal = false;
  double CachedNormal = 0.0;
};

} // namespace fgbs

#endif // FGBS_SUPPORT_RNG_H
