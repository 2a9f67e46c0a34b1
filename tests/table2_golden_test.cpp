//===- tests/table2_golden_test.cpp - The paper's Table 2 headline --------===//
//
// The Table 2 GA feature search on Numerical Recipes at the study seed,
// with the paper's parameters (population 1000, 100 generations,
// mutation 0.01), must land on exactly the recorded outcome: the
// convergence generation, the distinct-evaluation count, K, the selected
// mask and the bits of the best fitness.  This is the ctest `results`
// label's guard on the headline EXPERIMENTS.md reports.
//
//===----------------------------------------------------------------------===//

#include "bench/common.h"

#include "fgbs/ga/GeneticAlgorithm.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

using namespace fgbs;

TEST(Table2Golden, PaperSeedOutcome) {
  Suite S = makeNumericalRecipes();
  MeasurementDatabase Db(S, makeNehalem(), paperTargets());

  GaConfig Config;
  Config.ChromosomeLength = NumFeatures;
  Config.PopulationSize = 1000;
  Config.Generations = 100;
  Config.MutationProbability = 0.01;
  Config.Seed = 0xC602014;
  // The fitness bench/table2_feature_selection runs.
  GaResult R = runGa(Config, [&Db](const Chromosome &C) {
    return bench::scoreTable2Mask(Db, C).Fitness;
  });

  std::string Best;
  for (bool Gene : R.Best)
    Best += Gene ? '1' : '0';
  bench::Table2Score Refit = bench::scoreTable2Mask(Db, R.Best);

  EXPECT_EQ(R.ConvergedAtGeneration, 71u);
  EXPECT_EQ(R.Evaluations, 79819u);
  EXPECT_EQ(Refit.K, 14u);
  EXPECT_EQ(Best, "11001100010001100010100000010000010100000011"
                  "01011110000000000010111001000001");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(R.BestFitness), 0x40478513f7a2d6c6ull)
      << R.BestFitness;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Refit.Fitness),
            std::bit_cast<std::uint64_t>(R.BestFitness));
  EXPECT_NEAR(R.BestFitness, 47.04, 0.005);
}
