//===- tests/ga_test.cpp - Genetic algorithm --------------- --------------===//

#include "fgbs/ga/GeneticAlgorithm.h"

#include "fgbs/support/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

using namespace fgbs;

namespace {

/// OneMax (minimized): number of zero bits.  Optimum is the all-ones
/// chromosome with fitness 0.
double oneMax(const Chromosome &C) {
  double Zeros = 0.0;
  for (bool Bit : C)
    Zeros += !Bit;
  return Zeros;
}

/// A seeded, rugged landscape: every set bit adds a hashed per-position
/// weight, the selected positions add hashed noise, and the sum is
/// quantized to quarters so many individuals tie.  The ties exercise the
/// stable ranking and the strict tournament comparison.
double hashedFitness(const Chromosome &C) {
  double Weighted = 0.0;
  std::uint64_t Selected = 0x5eed;
  for (std::size_t I = 0; I < C.size(); ++I) {
    if (!C[I])
      continue;
    Weighted += static_cast<double>(hashU64(I * 31 + 7) % 1000) / 1000.0 - 0.3;
    Selected = hashCombine(Selected, I);
  }
  double Noise = static_cast<double>(Selected % 1024) / 1024.0;
  return std::floor((Weighted + Noise) * 4.0) / 4.0;
}

std::string hexBits(double X) {
  char Buffer[24];
  auto Bits = static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(X));
  std::snprintf(Buffer, sizeof(Buffer), "%016llx", Bits);
  return Buffer;
}

/// Every field of a GA outcome, exactly: the best bits, the bit patterns
/// of the best fitness and of a hash over the whole history, the
/// evaluation count and the convergence generation.
std::string describe(const GaResult &R) {
  std::string Bits;
  for (bool Gene : R.Best)
    Bits += Gene ? '1' : '0';
  std::uint64_t History = hashU64(R.BestHistory.size());
  for (double Value : R.BestHistory)
    History = hashCombine(History, std::bit_cast<std::uint64_t>(Value));
  char Tail[96];
  std::snprintf(Tail, sizeof(Tail), " %s %016llx %llu %u",
                hexBits(R.BestFitness).c_str(),
                static_cast<unsigned long long>(History),
                static_cast<unsigned long long>(R.Evaluations),
                R.ConvergedAtGeneration);
  return Bits + Tail;
}

GaConfig smallConfig() {
  GaConfig Cfg;
  Cfg.ChromosomeLength = 32;
  Cfg.PopulationSize = 60;
  Cfg.Generations = 60;
  Cfg.MutationProbability = 0.01;
  Cfg.Seed = 7;
  return Cfg;
}

} // namespace

TEST(Ga, SolvesOneMax) {
  GaResult R = runGa(smallConfig(), oneMax);
  EXPECT_LE(R.BestFitness, 1.0); // At most one bit short of optimal.
  EXPECT_EQ(R.Best.size(), 32u);
}

TEST(Ga, DeterministicBySeed) {
  GaResult A = runGa(smallConfig(), oneMax);
  GaResult B = runGa(smallConfig(), oneMax);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_DOUBLE_EQ(A.BestFitness, B.BestFitness);
  EXPECT_EQ(A.BestHistory, B.BestHistory);
}

TEST(Ga, DifferentSeedsExploreDifferently) {
  GaConfig Cfg = smallConfig();
  GaResult A = runGa(Cfg, oneMax);
  Cfg.Seed = 999;
  GaResult B = runGa(Cfg, oneMax);
  // Both near-optimal, but the paths differ.
  EXPECT_NE(A.BestHistory, B.BestHistory);
}

TEST(Ga, BestNeverWorsens) {
  GaResult R = runGa(smallConfig(), oneMax);
  for (std::size_t I = 1; I < R.BestHistory.size(); ++I)
    EXPECT_LE(R.BestHistory[I], R.BestHistory[I - 1]);
}

TEST(Ga, HistoryLengthMatchesGenerations) {
  GaConfig Cfg = smallConfig();
  Cfg.Generations = 25;
  GaResult R = runGa(Cfg, oneMax);
  EXPECT_EQ(R.BestHistory.size(), 25u);
  EXPECT_LT(R.ConvergedAtGeneration, 25u);
}

TEST(Ga, CachingReducesEvaluations) {
  GaConfig Cached = smallConfig();
  GaConfig Uncached = smallConfig();
  Uncached.CacheFitness = false;
  GaResult A = runGa(Cached, oneMax);
  GaResult B = runGa(Uncached, oneMax);
  EXPECT_LT(A.Evaluations, B.Evaluations);
  // Uncached evaluates every individual every generation.
  EXPECT_EQ(B.Evaluations, 60ull * 60ull);
  // Caching must not change the outcome.
  EXPECT_EQ(A.Best, B.Best);
}

TEST(Ga, RespectsChromosomeLength) {
  GaConfig Cfg = smallConfig();
  Cfg.ChromosomeLength = 5;
  GaResult R = runGa(Cfg, oneMax);
  EXPECT_EQ(R.Best.size(), 5u);
  EXPECT_DOUBLE_EQ(R.BestFitness, 0.0); // Trivial to solve.
}

TEST(Ga, MinimizesNotMaximizes) {
  // Fitness = number of ONE bits; the GA should drive toward all-zero.
  GaResult R = runGa(smallConfig(), [](const Chromosome &C) {
    double Ones = 0.0;
    for (bool Bit : C)
      Ones += Bit;
    return Ones;
  });
  EXPECT_LE(R.BestFitness, 1.0);
}

TEST(Ga, ThreadCountDoesNotChangeResults) {
  // The generation-parallel fitness fan-out must be invisible in the
  // output: Threads=4 equals the strictly serial Threads=1 run exactly.
  GaConfig Serial = smallConfig();
  Serial.Threads = 1;
  GaConfig Parallel = smallConfig();
  Parallel.Threads = 4;
  GaResult A = runGa(Serial, oneMax);
  GaResult B = runGa(Parallel, oneMax);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_DOUBLE_EQ(A.BestFitness, B.BestFitness);
  EXPECT_EQ(A.BestHistory, B.BestHistory);
  EXPECT_EQ(A.Evaluations, B.Evaluations);
  EXPECT_EQ(A.ConvergedAtGeneration, B.ConvergedAtGeneration);
}

TEST(Ga, ThreadCountDoesNotChangeResultsUncached) {
  GaConfig Serial = smallConfig();
  Serial.Threads = 1;
  Serial.CacheFitness = false;
  GaConfig Parallel = Serial;
  Parallel.Threads = 4;
  GaResult A = runGa(Serial, oneMax);
  GaResult B = runGa(Parallel, oneMax);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_EQ(A.BestHistory, B.BestHistory);
  EXPECT_EQ(A.Evaluations, B.Evaluations);
}

TEST(ChromosomeHash, AdjacentBitSwapsDiffer) {
  // The old additive mixing (bit + (index << 1)) collided whenever two
  // adjacent bits swapped values.  The packed-word hash must not.
  for (std::size_t Length : {8u, 64u, 65u, 76u, 128u}) {
    Chromosome Base(Length, false);
    for (std::size_t I = 0; I + 1 < Length; ++I) {
      Chromosome A = Base;
      Chromosome B = Base;
      A[I] = true;     // ...10...
      B[I + 1] = true; // ...01...
      EXPECT_NE(hashChromosome(A), hashChromosome(B))
          << "length " << Length << " position " << I;
    }
  }
}

TEST(ChromosomeHash, SmokeNoCollisionsOverSmallSpace) {
  // All 2^14 chromosomes of length 14 must hash distinctly (a 64-bit
  // hash colliding in a 16k set means the mixing is broken).
  std::set<std::uint64_t> Seen;
  for (unsigned Bits = 0; Bits < (1u << 14); ++Bits) {
    Chromosome C(14);
    for (std::size_t I = 0; I < 14; ++I)
      C[I] = (Bits >> I) & 1u;
    Seen.insert(hashChromosome(C));
  }
  EXPECT_EQ(Seen.size(), 1u << 14);
}

TEST(ChromosomeHash, LengthIsPartOfTheHash) {
  Chromosome Short(64, false);
  Chromosome Long(65, false);
  EXPECT_NE(hashChromosome(Short), hashChromosome(Long));
}

TEST(Ga, PenalizedEmptySelectionAvoided) {
  // Feature-selection-style fitness: empty chromosomes are infeasible.
  GaResult R = runGa(smallConfig(), [](const Chromosome &C) {
    double Count = 0.0;
    for (bool Bit : C)
      Count += Bit;
    if (Count == 0.0)
      return 1e9;
    return Count; // Prefer FEW features, but not zero.
  });
  double Count = 0.0;
  for (bool Bit : R.Best)
    Count += Bit;
  EXPECT_EQ(Count, 1.0);
}

TEST(Ga, GoldenOutcomes) {
  // Exact outcomes recorded before the packed-chromosome GA: the RNG draw
  // sequence, the ranking, the tournaments, the memo and the evaluation
  // count must all stay bit-identical, for every thread count.
  struct Golden {
    std::size_t Length;
    bool Cached;
    const char *Outcome;
  };
  const Golden Goldens[] = {
      {1, true, "0 3fe0000000000000 e41c24a426c8e91c 2 0"},
      {1, false, "0 3fe0000000000000 e41c24a426c8e91c 1000 0"},
      {63, true,
       "000100000111010111101001100110011000000001100000011110000110100"
       " c00c000000000000 c51b5cd0713d6620 784 20"},
      {63, false,
       "000100000111010111101001100110011000000001100000011110000110100"
       " c00c000000000000 c51b5cd0713d6620 1000 20"},
      {64, true,
       "0001001001101101101010011001010110000000010001000011100000101001"
       " c00a000000000000 4453d52413b3623a 792 20"},
      {64, false,
       "0001001001101101101010011001010110000000010001000011100000101001"
       " c00a000000000000 4453d52413b3623a 1000 20"},
      {65, true,
       "0001001001110101111000011001110110000000011000000111100000001001"
       "0"
       " c00e000000000000 1c22354d09ed878c 791 24"},
      {65, false,
       "0001001001110101111000011001110110000000011000000111100000001001"
       "0"
       " c00e000000000000 1c22354d09ed878c 1000 24"},
      {76, true,
       "0001001001110001101010011001100110000000011001000111110000101001"
       "001000010110"
       " c010000000000000 96ea23139f831e5a 799 24"},
      {76, false,
       "0001001001110001101010011001100110000000011001000111110000101001"
       "001000010110"
       " c010000000000000 96ea23139f831e5a 1000 24"},
      {130, true,
       "0101000001100101110001011001110110000000011000000110000000100001"
       "0100000101000000000000010000000001001011000000001010100000011001"
       "00"
       " c00a000000000000 08387a0926103773 803 24"},
      {130, false,
       "0101000001100101110001011001110110000000011000000110000000100001"
       "0100000101000000000000010000000001001011000000001010100000011001"
       "00"
       " c00a000000000000 08387a0926103773 1000 24"},
  };
  for (const Golden &G : Goldens)
    for (unsigned Threads : {1u, 4u}) {
      GaConfig Cfg;
      Cfg.ChromosomeLength = G.Length;
      Cfg.PopulationSize = 40;
      Cfg.Generations = 25;
      Cfg.MutationProbability = 0.02;
      Cfg.Seed = 1000 + G.Length;
      Cfg.CacheFitness = G.Cached;
      Cfg.Threads = Threads;
      EXPECT_EQ(describe(runGa(Cfg, hashedFitness)), G.Outcome)
          << "length " << G.Length << (G.Cached ? " cached" : " uncached")
          << " threads " << Threads;
    }
}

TEST(Ga, EliteFractionOutOfRangeIsClamped) {
  // The elite count clamps to [1, PopulationSize]: a fraction above 1
  // keeps the whole population, a negative or NaN one keeps one elite.
  auto RunWith = [](double Fraction) {
    GaConfig Cfg = smallConfig();
    Cfg.Generations = 12;
    Cfg.EliteFraction = Fraction;
    return describe(runGa(Cfg, hashedFitness));
  };
  std::string Everyone = RunWith(1.0);
  std::string One = RunWith(0.0);
  EXPECT_NE(Everyone, One);
  EXPECT_EQ(RunWith(1.5), Everyone);
  EXPECT_EQ(RunWith(-0.5), One);
  EXPECT_EQ(RunWith(std::numeric_limits<double>::quiet_NaN()), One);
}
