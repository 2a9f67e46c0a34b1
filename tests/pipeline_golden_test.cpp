//===- tests/pipeline_golden_test.cpp - Exact pipeline re-runs on NR ------===//
//
// Every field of a PipelineResult, bit for bit, over the Numerical
// Recipes database: the Table 2 mask, 64 seeded random masks (the GA's
// fitness calls), each ablation toggle and an external clustering.  The
// digests were recorded before Pipeline::run was made allocation-light;
// any change to the masked table, the normalization, the clustering, the
// selection, the model or the per-target evaluation moves one.
// SerializedGolden pins the measurement-cache and snapshot bytes of NR
// and NAS by size and SHA-256.
//
//===----------------------------------------------------------------------===//

#include "fgbs/core/MeasurementCache.h"
#include "fgbs/core/Pipeline.h"
#include "fgbs/service/Snapshot.h"

#include "fgbs/suites/Suites.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/Sha256.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

using namespace fgbs;

namespace {

/// A canonical byte image of a PipelineResult: every scalar as its
/// 64-bit pattern, every vector length-prefixed.
class ResultImage {
public:
  explicit ResultImage(const PipelineResult &R) {
    put(R.Kept);
    put(R.Points.size());
    for (const std::vector<double> &Row : R.Points)
      put(Row);
    put(R.Mask);
    put(R.Norm.Mean);
    put(R.Norm.Std);
    put(R.ElbowK);
    put(R.InitialK);
    put(R.Initial.Assignment);
    put(R.Initial.K);
    put(R.Selection.Assignment);
    put(R.Selection.Representatives);
    put(R.Selection.IllBehaved);
    put(R.Selection.FinalK);
    const Matrix &M = R.Model.matrix();
    put(M.rows());
    put(M.cols());
    for (std::size_t Row = 0; Row < M.rows(); ++Row)
      for (std::size_t Col = 0; Col < M.cols(); ++Col)
        put(M.at(Row, Col));
    put(R.Model.representatives());
    put(R.Model.assignment());
    put(R.Targets.size());
    for (const TargetEvaluation &E : R.Targets) {
      put(E.MachineName);
      put(E.Predicted);
      put(E.Real);
      put(E.ErrorsPercent);
      put(E.MedianErrorPercent);
      put(E.AverageErrorPercent);
      put(E.Reduction.FullSuiteSeconds);
      put(E.Reduction.ReducedInvocationSeconds);
      put(E.Reduction.RepresentativeSeconds);
      put(E.AppNames.size());
      for (const std::string &Name : E.AppNames)
        put(Name);
      put(E.AppReference);
      put(E.AppReal);
      put(E.AppPredicted);
      put(E.RealGeomeanSpeedup);
      put(E.PredictedGeomeanSpeedup);
    }
  }

  /// The first 16 hex digits of the image's SHA-256.
  std::string digest() const { return sha256Hex(Bytes).substr(0, 16); }

private:
  void putWord(std::uint64_t V) {
    Bytes.append(reinterpret_cast<const char *>(&V), sizeof(V));
  }
  void put(double V) { putWord(std::bit_cast<std::uint64_t>(V)); }
  void put(std::size_t V) { putWord(V); }
  void put(unsigned V) { putWord(V); }
  void put(int V) { putWord(static_cast<std::uint64_t>(V)); }
  void put(const std::string &S) {
    putWord(S.size());
    Bytes += S;
  }
  void put(const std::vector<bool> &V) {
    putWord(V.size());
    for (bool B : V)
      putWord(B);
  }
  template <typename T> void put(const std::vector<T> &V) {
    putWord(V.size());
    for (const T &X : V)
      put(X);
  }

  std::string Bytes;
};

/// Seeded masks of varying density (never empty), like the GA's.
std::vector<FeatureMask> randomMasks(std::size_t Count) {
  Rng R(0xF6B5);
  std::vector<FeatureMask> Masks;
  for (std::size_t I = 0; I < Count; ++I) {
    double Density = static_cast<double>(I % 8 + 1) / 9.0;
    FeatureMask Mask(NumFeatures);
    for (std::size_t B = 0; B < NumFeatures; ++B)
      Mask[B] = R.bernoulli(Density);
    if (maskCount(Mask) == 0)
      Mask[R.below(NumFeatures)] = true;
    Masks.push_back(std::move(Mask));
  }
  return Masks;
}

} // namespace

TEST(PipelineGolden, MaskedRerunsOnNr) {
  Suite S = makeNumericalRecipes();
  MeasurementDatabase Db(S, makeNehalem(), paperTargets());

  std::vector<std::string> Digests;
  auto Run = [&](const PipelineConfig &Config) {
    PipelineResult R = Pipeline(Db, Config).run();
    Digests.push_back(ResultImage(R).digest());
    return R;
  };

  PipelineResult Table2 = Run(PipelineConfig());
  EXPECT_EQ(Table2.ElbowK, 17u);
  EXPECT_EQ(Table2.Targets.size(), 3u);
  for (const FeatureMask &Mask : randomMasks(64)) {
    PipelineConfig Config;
    Config.Features = Mask;
    Run(Config);
  }
  PipelineConfig Raw;
  Raw.Normalize = false;
  Run(Raw);
  // NR has no ill-behaved codelets, so this run matches the Table 2 run;
  // it still pins the plain-medoid branch.
  PipelineConfig KeepIllBehaved;
  KeepIllBehaved.ReSelectIllBehaved = false;
  Run(KeepIllBehaved);
  PipelineConfig FirstMember;
  FirstMember.MedoidRepresentative = false;
  Run(FirstMember);
  PipelineConfig Average;
  Average.LinkageMethod = Linkage::Average;
  Average.K = 6;
  Run(Average);
  Clustering Random = randomClustering(Table2.Kept.size(), 9, 0xF167);
  Digests.push_back(
      ResultImage(Pipeline(Db, PipelineConfig()).runWithClustering(Random))
          .digest());

  const char *const Expected[] = {
      "d5fbe3d347d81af5", "197bec66bd4a68b7", "55f73c3ff80a0a4c",
      "190d4d71283ffc1b", "98e53599a0eca02a", "cf55cd556a40579e",
      "cd2077d459e03ffc", "bf4af374df84dabd", "6e83cfc14aa33edf",
      "c43ef27f6a548f74", "801547df7a7231fc", "e6bb7b704f23e621",
      "4f50ede4a8d50bf0", "9028ba24fb217c40", "b6cda9968bf30d5b",
      "b374d84d921db3ee", "5939d0d8ed136ef1", "97d0ad3f2a916b76",
      "2385ab27369dc507", "10bbc8cfd670c9a6", "2fa25e6faf6d234a",
      "5a37508acbb1a8e1", "06045cb7fbefba30", "8792de81d5870079",
      "18be0fb9ff2a2e72", "7e32d2647160cd70", "a799c00c78c56c8d",
      "22839f94c7489566", "e5f13c110a52dc36", "e645f9ddf605c57b",
      "298ed4277005bf4e", "8c42da66676bdf11", "090c9f627f8ed538",
      "c0973527d0766905", "1c3322616f6017d5", "aabe4846925fbb73",
      "75d95ee46c65c239", "91521e528d06251e", "ebc024a448698f9a",
      "8a2c330f8a3448de", "143a5c1b590768ff", "1aa7ba580f7387b3",
      "44d1a37c82db0bcf", "69c2c4bd04cf1740", "12b5e275dc807c23",
      "4caf774fcfcc4ebe", "8bc798cf25db22d0", "101d3c17ae1be033",
      "4598b5cfab13a780", "d35ef84b1c5eb4b0", "5544732193fb057a",
      "e65b7ed161c57609", "deba1e7a0a04117f", "cbf80c47234de87c",
      "d8c22e50097ce3f0", "6d0b751b1d91519a", "5bd58f511ff23198",
      "b4dd064e9bd4c4d1", "a82d27d9b3ad98d6", "846227eb7d8e419c",
      "757c7fd6ca46a251", "984fc1b96f58e417", "d2cd065843f955b6",
      "d07bec493efe8e14", "fd15ace4802f2299", "6f1ada3777e4769b",
      "d5fbe3d347d81af5", "967230b384446200", "0a395772415ac7bc",
      "3a0220f83520f008",
  };
  ASSERT_EQ(Digests.size(), std::size(Expected));
  for (std::size_t I = 0; I < Digests.size(); ++I)
    EXPECT_EQ(Digests[I], Expected[I]) << "run " << I;
}

TEST(PipelineGolden, AppAggregationOnSynthetic) {
  // NR has one codelet per application and no ill-behaved codelets.  This
  // synthetic suite has eight per application, drops some codelets at
  // the 1M-cycle filter and makes about a third fail the agreement test,
  // so it pins the multi-codelet app sums, the re-selection and a
  // dissolved cluster.  The last two runs rename applications.  First
  // the third takes the second's name: it then aggregates the second's
  // codelets, and its own (whose App no longer names any application)
  // drop out of the per-application sums.  Then the third and its
  // codelets take the first application's name: the first and the third
  // both aggregate the codelets of both.  A database freezes its suite's
  // grouping, so each renamed suite gets a database of its own.
  SyntheticConfig Config;
  Config.IllBehavedProbability = 0.5;
  Suite S = makeSyntheticSuite(Config);
  MeasurementDatabase Db(S, makeNehalem(), paperTargets());

  std::vector<std::string> Digests;
  std::size_t IllBehaved = 0;
  auto RunOn = [&](const MeasurementDatabase &On,
                   const PipelineConfig &Config) {
    PipelineResult R = Pipeline(On, Config).run();
    IllBehaved += R.Selection.IllBehaved.size();
    Digests.push_back(ResultImage(R).digest());
  };
  auto Run = [&](const PipelineConfig &Config) { RunOn(Db, Config); };
  Run(PipelineConfig());
  for (const FeatureMask &Mask : randomMasks(8)) {
    PipelineConfig Masked;
    Masked.Features = Mask;
    Run(Masked);
  }
  PipelineConfig Raw;
  Raw.Normalize = false;
  Run(Raw);
  PipelineConfig KeepIllBehaved;
  KeepIllBehaved.ReSelectIllBehaved = false;
  Run(KeepIllBehaved);
  PipelineConfig FirstMember;
  FirstMember.MedoidRepresentative = false;
  Run(FirstMember);
  ASSERT_GE(S.Applications.size(), 3u);
  Suite SecondTwice = makeSyntheticSuite(Config);
  SecondTwice.Applications[2].Name = S.Applications[1].Name;
  RunOn(MeasurementDatabase(SecondTwice, makeNehalem(), paperTargets()),
        PipelineConfig());
  Suite FirstTwice = makeSyntheticSuite(Config);
  FirstTwice.Applications[2].Name = S.Applications[0].Name;
  for (Codelet &C : FirstTwice.Applications[2].Codelets)
    C.App = S.Applications[0].Name;
  RunOn(MeasurementDatabase(FirstTwice, makeNehalem(), paperTargets()),
        PipelineConfig());
  EXPECT_GT(IllBehaved, 0u);

  const char *const Expected[] = {
      "45297698b222fbc6", "a6f5c74695c46fee", "168d87cb7ba06a2c",
      "18f48ea811d5122f", "2e01f44d28ab2ae6", "e73cbd6d7e5cf3cc",
      "7bf13c128283980e", "3a8737518f38a7bf", "d1e8d77f570bd7b5",
      "7f882b758ae6c2f8", "1ae4fc56c7abda27", "167897463f1375ba",
      "3b3ffd0973d1b98b", "175a0578d2bf954b",
  };
  ASSERT_EQ(Digests.size(), std::size(Expected));
  for (std::size_t I = 0; I < Digests.size(); ++I)
    EXPECT_EQ(Digests[I], Expected[I]) << "run " << I;
}

// The fgbs.meas.v1 bytes of the NR and NAS databases (the measurement
// cache entries `fgbs_train --cache` stores) and the fgbs.model.v1 bytes
// of their default-config snapshots (`fgbs_train --out`), recorded from
// the bytewise encoder: every value, every count and every name, in
// their order and encoding.
namespace {

struct SerializedBytes {
  std::size_t Size;
  const char *Sha;
};

void expectSerializedBytes(const Suite &S, SerializedBytes Measurements,
                           SerializedBytes Snapshot) {
  const std::vector<Machine> Targets = paperTargets();
  MeasurementDatabase Db(S, makeNehalem(), Targets);
  const std::string Meas = serializeMeasurements(
      Db, measurementKey(S, makeNehalem(), Targets));
  EXPECT_EQ(Meas.size(), Measurements.Size);
  EXPECT_EQ(sha256Hex(Meas), Measurements.Sha);

  const std::string Model = service::serializeSnapshot(
      service::buildSnapshot(Db, Pipeline(Db, PipelineConfig()).run()));
  EXPECT_EQ(Model.size(), Snapshot.Size);
  EXPECT_EQ(sha256Hex(Model), Snapshot.Sha);
}

} // namespace

TEST(SerializedGolden, NrMeasurementsAndSnapshot) {
  expectSerializedBytes(
      makeNumericalRecipes(),
      {44494,
       "fee7c74b6f96ecfc84ec86f458307f8471579d2bdae9736497c17ff579f7df3a"},
      {5562,
       "1575ef0df947772e3d34d36818354b389835d844a254040e11effb42b78be512"});
}

TEST(SerializedGolden, NasMeasurementsAndSnapshot) {
  expectSerializedBytes(
      makeNasSer(),
      {106883,
       "2697b86271e5361d9da54b3d5c97c037fbcbb61acba669a3049ab2d8602936df"},
      {6792,
       "b28f1265686a14406ee2bec5bd4e21eba272f52cd4ce5ee82a92f6e2982f0b05"});
}
