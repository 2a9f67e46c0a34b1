//===- fgbs/ga/GeneticAlgorithm.cpp - Binary genetic algorithm ------------===//

#include "fgbs/ga/GeneticAlgorithm.h"

#include "fgbs/obs/Trace.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <numeric>
#include <unordered_map>

using namespace fgbs;

namespace {

/// Chromosomes are packed 64 genes to a word: gene B is bit B % 64 of
/// word B / 64, and the bits past the chromosome length stay zero.
constexpr std::size_t GenesPerWord = 64;

std::size_t wordsFor(std::size_t Length) {
  return (Length + GenesPerWord - 1) / GenesPerWord;
}

bool gene(const std::uint64_t *Words, std::size_t B) {
  return (Words[B / GenesPerWord] >> (B % GenesPerWord)) & 1u;
}

void setGene(std::uint64_t *Words, std::size_t B) {
  Words[B / GenesPerWord] |= std::uint64_t{1} << (B % GenesPerWord);
}

/// The chromosome hash over its packed words: the length, then each word
/// through hashCombine.
std::uint64_t hashWords(const std::uint64_t *Words, std::size_t Length) {
  std::uint64_t Hash = hashU64(Length);
  for (std::size_t W = 0; W < wordsFor(Length); ++W)
    Hash = hashCombine(Hash, Words[W]);
  return Hash;
}

Chromosome unpack(const std::uint64_t *Words, std::size_t Length) {
  Chromosome C(Length);
  for (std::size_t B = 0; B < Length; ++B)
    C[B] = gene(Words, B);
  return C;
}

/// Hash adaptor over packed chromosomes of one length, for fitness
/// memoization.
struct PackedHash {
  std::size_t Length;
  std::size_t operator()(const std::vector<std::uint64_t> &Words) const {
    return static_cast<std::size_t>(hashWords(Words.data(), Length));
  }
};

} // namespace

std::uint64_t fgbs::hashChromosome(const Chromosome &C) {
  std::vector<std::uint64_t> Words(wordsFor(C.size()), 0);
  for (std::size_t B = 0; B < C.size(); ++B)
    if (C[B])
      setGene(Words.data(), B);
  return hashWords(Words.data(), C.size());
}

GaResult fgbs::runGa(const GaConfig &Config, const FitnessFn &Fitness) {
  FGBS_TRACE_SPAN("ga.run");
  assert(Config.ChromosomeLength > 0 && "empty chromosomes");
  assert(Config.PopulationSize >= 2 && "population too small");
  assert(Config.TournamentSize >= 1 && "tournament too small");

  Rng Generator(Config.Seed);
  GaResult Result;

  unsigned Threads =
      Config.Threads > 0 ? Config.Threads : ThreadPool::defaultThreadCount();
  std::unique_ptr<ThreadPool> Pool;
  if (Threads > 1)
    Pool = std::make_unique<ThreadPool>(Threads);

  const std::size_t Length = Config.ChromosomeLength;
  const std::size_t Words = wordsFor(Length);
  const std::size_t PopulationSize = Config.PopulationSize;
  std::unordered_map<std::vector<std::uint64_t>, double, PackedHash> Memo(
      0, PackedHash{Length});

  // The population, packed: individual I owns words [I * Words,
  // (I + 1) * Words).  Next receives the generation being bred.
  std::vector<std::uint64_t> Population(PopulationSize * Words, 0);
  std::vector<std::uint64_t> Next(PopulationSize * Words, 0);
  auto Genes = [Words](std::vector<std::uint64_t> &Pop, std::size_t I) {
    return Pop.data() + I * Words;
  };

  // Random initial population.
  for (std::size_t I = 0; I < PopulationSize; ++I)
    for (std::size_t B = 0; B < Length; ++B)
      if (Generator.bernoulli(0.5))
        setGene(Genes(Population, I), B);

  std::vector<double> Scores(PopulationSize);
  std::vector<double *> ScoreOf(PopulationSize);
  std::vector<std::size_t> Pending;
  std::vector<std::uint64_t> Key(Words);

  // Scores the whole generation.  Evaluations within a generation are
  // independent, so they fan out over the pool; everything that affects
  // determinism — which chromosomes get evaluated, the evaluation count,
  // and the memo contents — is decided on this thread, so any thread
  // count produces identical results.  Chromosomes are unpacked only to
  // call the fitness.
  auto EvaluateGeneration = [&] {
    FGBS_SCOPED_TIMER("ga.generation_eval");
    if (!Config.CacheFitness) {
      auto EvalOne = [&](std::size_t I) {
        Scores[I] = Fitness(unpack(Genes(Population, I), Length));
      };
      if (Pool)
        Pool->parallelFor(0, PopulationSize, EvalOne);
      else
        for (std::size_t I = 0; I < PopulationSize; ++I)
          EvalOne(I);
      Result.Evaluations += PopulationSize;
      FGBS_COUNTER_ADD("ga.fitness_evals", PopulationSize);
      return;
    }

    // Serial pass: look every individual up in the memo.  A miss enters
    // the memo at once, so later copies in this generation find it and
    // the misses are deduped in first-occurrence order (the historical
    // serial call order).
    Pending.clear();
    for (std::size_t I = 0; I < PopulationSize; ++I) {
      Key.assign(Genes(Population, I), Genes(Population, I) + Words);
      auto [Entry, Inserted] = Memo.try_emplace(Key, 0.0);
      ScoreOf[I] = &Entry->second;
      if (Inserted)
        Pending.push_back(I);
    }
    // Memo hit rate = cache_hits / (cache_hits + cache_misses); the
    // deduped re-occurrences within one generation count as hits too.
    FGBS_COUNTER_ADD("ga.cache_hits", PopulationSize - Pending.size());
    FGBS_COUNTER_ADD("ga.cache_misses", Pending.size());
    FGBS_COUNTER_ADD("ga.fitness_evals", Pending.size());

    // Each evaluation writes only its own memo entry, and the memo does
    // not change shape inside the parallel region.
    auto EvalPending = [&](std::size_t P) {
      std::size_t I = Pending[P];
      *ScoreOf[I] = Fitness(unpack(Genes(Population, I), Length));
    };
    if (Pool)
      Pool->parallelFor(0, Pending.size(), EvalPending);
    else
      for (std::size_t P = 0; P < Pending.size(); ++P)
        EvalPending(P);
    Result.Evaluations += Pending.size();

    for (std::size_t I = 0; I < PopulationSize; ++I)
      Scores[I] = *ScoreOf[I];
  };

  // Elites surviving each generation, clamped to [1, PopulationSize]: a
  // fraction above 1 keeps everyone, a negative or NaN one keeps one.
  double EliteShare =
      Config.EliteFraction * static_cast<double>(PopulationSize);
  std::size_t Elite = 1;
  if (EliteShare >= static_cast<double>(PopulationSize))
    Elite = PopulationSize;
  else if (EliteShare > 1.0)
    Elite = static_cast<std::size_t>(EliteShare);

  double BestEver = 0.0;
  bool HaveBest = false;
  std::vector<std::size_t> Order(PopulationSize);

  for (unsigned Gen = 0; Gen < Config.Generations; ++Gen) {
    FGBS_COUNTER_ADD("ga.generations", 1);
    EvaluateGeneration();

    // Rank by ascending fitness (minimization).
    std::iota(Order.begin(), Order.end(), 0);
    std::stable_sort(Order.begin(), Order.end(),
                     [&Scores](std::size_t A, std::size_t B) {
                       return Scores[A] < Scores[B];
                     });

    double GenBest = Scores[Order.front()];
    if (!HaveBest || GenBest < BestEver) {
      BestEver = GenBest;
      Result.Best = unpack(Genes(Population, Order.front()), Length);
      Result.ConvergedAtGeneration = Gen;
      HaveBest = true;
    }
    Result.BestHistory.push_back(BestEver);

    if (Gen + 1 == Config.Generations)
      break;

    // Next generation: elites survive, the rest are bred.
    for (std::size_t E = 0; E < Elite; ++E)
      std::copy_n(Genes(Population, Order[E]), Words, Genes(Next, E));

    auto SelectParent = [&]() -> const std::uint64_t * {
      std::size_t Best = Generator.below(PopulationSize);
      for (unsigned T = 1; T < Config.TournamentSize; ++T) {
        std::size_t Candidate = Generator.below(PopulationSize);
        if (Scores[Candidate] < Scores[Best])
          Best = Candidate;
      }
      return Genes(Population, Best);
    };

    for (std::size_t I = Elite; I < PopulationSize; ++I) {
      const std::uint64_t *A = SelectParent();
      const std::uint64_t *B = SelectParent();
      std::uint64_t *Child = Genes(Next, I);
      std::fill_n(Child, Words, 0);
      for (std::size_t Bit = 0; Bit < Length; ++Bit) {
        // Uniform crossover, then per-bit mutation.
        bool Gene = Generator.bernoulli(0.5) ? gene(A, Bit) : gene(B, Bit);
        if (Generator.bernoulli(Config.MutationProbability))
          Gene = !Gene;
        if (Gene)
          setGene(Child, Bit);
      }
    }
    Population.swap(Next);
  }

  Result.BestFitness = BestEver;
  return Result;
}
