//===- tests/measurement_cache_test.cpp - fgbs.meas.v1 cache --------------===//

#include "fgbs/core/MeasurementCache.h"

#include "fgbs/dsl/Builder.h"
#include "fgbs/suites/Synthetic.h"
#include "fgbs/support/Crc32.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/stat.h>

using namespace fgbs;

namespace {

SyntheticConfig smallConfig() {
  SyntheticConfig Cfg;
  Cfg.NumApplications = 1;
  Cfg.CodeletsPerApp = 4;
  Cfg.MinFootprintBytes = 64 << 10;
  Cfg.MaxFootprintBytes = 1 << 20;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Shared small database (simulated once; every suite reuses it)
//===----------------------------------------------------------------------===//

class MeasurementCacheTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    TheSuite = new Suite(makeSyntheticSuite(smallConfig()));
    Targets = {makeAtom(), makeSandyBridge()};
    Db = new MeasurementDatabase(*TheSuite, makeNehalem(), Targets);
    Key = measurementKey(*TheSuite, makeNehalem(), Targets);
  }
  static void TearDownTestSuite() {
    delete Db;
    delete TheSuite;
    Db = nullptr;
    TheSuite = nullptr;
  }

  static Suite *TheSuite;
  static std::vector<Machine> Targets;
  static MeasurementDatabase *Db;
  static std::uint64_t Key;
};

Suite *MeasurementCacheTest::TheSuite = nullptr;
std::vector<Machine> MeasurementCacheTest::Targets;
MeasurementDatabase *MeasurementCacheTest::Db = nullptr;
std::uint64_t MeasurementCacheTest::Key = 0;

void patchU32(std::string &Bytes, std::size_t Offset, std::uint32_t V) {
  for (int B = 0; B < 4; ++B)
    Bytes[Offset + B] = static_cast<char>((V >> (8 * B)) & 0xffu);
}

void patchU64(std::string &Bytes, std::size_t Offset, std::uint64_t V) {
  for (int B = 0; B < 8; ++B)
    Bytes[Offset + B] = static_cast<char>((V >> (8 * B)) & 0xffu);
}

void fixChecksum(std::string &Bytes) {
  patchU32(Bytes, 24,
           crc32(std::string_view(Bytes).substr(kMeasurementHeaderBytes)));
}

std::uint64_t bitsOf(double V) { return std::bit_cast<std::uint64_t>(V); }

/// Bit patterns, so that signed zeros and NaN payloads count too.
std::vector<std::uint64_t> bitsOf(const std::vector<double> &V) {
  std::vector<std::uint64_t> Out;
  for (double X : V)
    Out.push_back(bitsOf(X));
  return Out;
}

/// Expects two databases' pipeline inputs to agree bit for bit.
void expectSameInputs(const PipelineInputs &A, const PipelineInputs &B) {
  EXPECT_EQ(A.Kept, B.Kept);
  ASSERT_EQ(A.Normalized.size(), B.Normalized.size());
  for (std::size_t I = 0; I < A.Normalized.size(); ++I)
    EXPECT_EQ(bitsOf(A.Normalized[I]), bitsOf(B.Normalized[I])) << I;
  EXPECT_EQ(bitsOf(A.Norm.Mean), bitsOf(B.Norm.Mean));
  EXPECT_EQ(bitsOf(A.Norm.Std), bitsOf(B.Norm.Std));
  EXPECT_EQ(A.WellBehaved, B.WellBehaved);
  EXPECT_EQ(bitsOf(A.RefTimes), bitsOf(B.RefTimes));
  EXPECT_EQ(bitsOf(A.Invocations), bitsOf(B.Invocations));
  EXPECT_EQ(A.Apps.Names, B.Apps.Names);
  EXPECT_EQ(bitsOf(A.Apps.Coverage), bitsOf(B.Apps.Coverage));
  EXPECT_EQ(A.Apps.Begin, B.Apps.Begin);
  EXPECT_EQ(A.Apps.Members, B.Apps.Members);
  EXPECT_EQ(bitsOf(A.AppReference), bitsOf(B.AppReference));
  ASSERT_EQ(A.Targets.size(), B.Targets.size());
  for (std::size_t T = 0; T < A.Targets.size(); ++T) {
    const TargetInputs &X = A.Targets[T];
    const TargetInputs &Y = B.Targets[T];
    EXPECT_EQ(bitsOf(X.Real), bitsOf(Y.Real)) << T;
    EXPECT_EQ(bitsOf(X.StandaloneMedian), bitsOf(Y.StandaloneMedian)) << T;
    EXPECT_EQ(bitsOf(X.BenchmarkSeconds), bitsOf(Y.BenchmarkSeconds)) << T;
    EXPECT_EQ(bitsOf(X.FullSuiteSeconds), bitsOf(Y.FullSuiteSeconds)) << T;
    EXPECT_EQ(bitsOf(X.ReducedInvocationSeconds),
              bitsOf(Y.ReducedInvocationSeconds))
        << T;
    EXPECT_EQ(bitsOf(X.AppReal), bitsOf(Y.AppReal)) << T;
    EXPECT_EQ(bitsOf(X.RealGeomeanSpeedup), bitsOf(Y.RealGeomeanSpeedup))
        << T;
  }
}

/// Two applications of one microsecond-long stream codelet each: both
/// run far under the 1M-cycle profiling filter.
Suite tinySuite() {
  Suite S;
  S.Name = "tiny";
  for (const char *Name : {"a", "b"}) {
    Application App;
    App.Name = Name;
    CodeletBuilder B(std::string("tiny_") + Name, Name);
    unsigned X = B.array("x", Precision::DP, 1 << 10);
    unsigned Y = B.array("y", Precision::DP, 1 << 10);
    B.loops(1 << 10);
    B.stmt(storeTo(B.at(X, StrideClass::Unit),
                   add(B.ld(Y, StrideClass::Unit), constant(Precision::DP))));
    App.Codelets.push_back(B.take());
    S.Applications.push_back(std::move(App));
  }
  return S;
}

/// A scratch directory unique to the running test, removed on scope
/// exit.
struct TempDir {
  std::filesystem::path Path;
  explicit TempDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             ("fgbs_meas_test_" + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Round-tripping
//===----------------------------------------------------------------------===//

TEST_F(MeasurementCacheTest, SerializeParseSerializeIsByteIdentical) {
  std::string Bytes = serializeMeasurements(*Db, Key);
  MeasurementLoadResult R =
      parseMeasurements(Bytes, *TheSuite, makeNehalem(), Targets, Key);
  ASSERT_TRUE(R) << measurementCacheErrorName(R.Error) << ": " << R.Message;
  EXPECT_EQ(serializeMeasurements(*R.Db, Key), Bytes);
}

TEST_F(MeasurementCacheTest, LoadedDatabaseMatchesFieldByField) {
  std::string Bytes = serializeMeasurements(*Db, Key);
  MeasurementLoadResult R =
      parseMeasurements(Bytes, *TheSuite, makeNehalem(), Targets, Key);
  ASSERT_TRUE(R) << R.Message;

  ASSERT_EQ(R.Db->numCodelets(), Db->numCodelets());
  ASSERT_EQ(R.Db->targets().size(), Db->targets().size());
  for (std::size_t I = 0; I < Db->numCodelets(); ++I) {
    const CodeletProfile &A = Db->profile(I);
    const CodeletProfile &B = R.Db->profile(I);
    // The rebuilt profile must point into the LIVE suite, not a copy.
    EXPECT_EQ(B.C, A.C);
    EXPECT_EQ(B.Discarded, A.Discarded);
    EXPECT_EQ(B.InApp.TrueSeconds, A.InApp.TrueSeconds);
    EXPECT_EQ(B.InApp.MeasuredSeconds, A.InApp.MeasuredSeconds);
    EXPECT_EQ(B.InApp.Counters.Cycles, A.InApp.Counters.Cycles);
    EXPECT_EQ(B.InApp.Compute.ComputeCycles, A.InApp.Compute.ComputeCycles);
    EXPECT_EQ(B.Features, A.Features);
    EXPECT_EQ(B.InApp.MemCyclesPerIter, A.InApp.MemCyclesPerIter);
    EXPECT_EQ(R.Db->standaloneRef(I).MedianSeconds,
              Db->standaloneRef(I).MedianSeconds);
    EXPECT_EQ(R.Db->standaloneRef(I).Invocations,
              Db->standaloneRef(I).Invocations);
    for (std::size_t T = 0; T < Db->targets().size(); ++T) {
      EXPECT_EQ(R.Db->realTargetSeconds(I, T), Db->realTargetSeconds(I, T));
      EXPECT_EQ(R.Db->standaloneTarget(I, T).MedianSeconds,
                Db->standaloneTarget(I, T).MedianSeconds);
    }
  }

  // Both constructors derive the same per-database pipeline inputs, and
  // the normalized table is the kept features normalized per column.
  const PipelineInputs &In = Db->pipelineInputs();
  ASSERT_FALSE(In.Kept.empty());
  expectSameInputs(R.Db->pipelineInputs(), In);
  FeatureTable Kept;
  for (std::size_t I : In.Kept)
    Kept.push_back(Db->profile(I).Features);
  FeatureTable Normalized = normalizeFeatures(Kept);
  ASSERT_EQ(Normalized.size(), In.Normalized.size());
  for (std::size_t I = 0; I < Normalized.size(); ++I)
    EXPECT_EQ(bitsOf(Normalized[I]), bitsOf(In.Normalized[I])) << I;
}

TEST(PipelineInputsTest, SuiteWithEveryCodeletDiscardedStillBuilds) {
  // Nothing is kept: there is no table to normalize and no application
  // to aggregate, and both constructors must still succeed.
  Suite S = tinySuite();
  std::vector<Machine> Targets = {makeAtom(), makeSandyBridge()};
  MeasurementDatabase Db(S, makeNehalem(), Targets);
  ASSERT_EQ(Db.numCodelets(), 2u);
  for (std::size_t I = 0; I < Db.numCodelets(); ++I)
    ASSERT_TRUE(Db.profile(I).Discarded) << Db.codelet(I).Name;

  const PipelineInputs &In = Db.pipelineInputs();
  EXPECT_TRUE(Db.keptCodelets().empty());
  EXPECT_TRUE(In.Normalized.empty());
  EXPECT_TRUE(In.Norm.Mean.empty());
  EXPECT_EQ(In.Apps.size(), 0u);
  EXPECT_TRUE(In.AppReference.empty());
  ASSERT_EQ(In.Targets.size(), Targets.size());
  for (const TargetInputs &T : In.Targets) {
    EXPECT_TRUE(T.Real.empty());
    EXPECT_TRUE(T.AppReal.empty());
    EXPECT_EQ(T.FullSuiteSeconds, 0.0);
    EXPECT_EQ(T.ReducedInvocationSeconds, 0.0);
    EXPECT_EQ(T.RealGeomeanSpeedup, 0.0);
  }

  const std::uint64_t Key = measurementKey(S, makeNehalem(), Targets);
  MeasurementLoadResult R = parseMeasurements(
      serializeMeasurements(Db, Key), S, makeNehalem(), Targets, Key);
  ASSERT_TRUE(R) << R.Message;
  expectSameInputs(R.Db->pipelineInputs(), In);
}

TEST_F(MeasurementCacheTest, SaveLoadSaveFileIsByteIdentical) {
  TempDir Dir("roundtrip");
  MeasurementCache First((Dir.Path / "first").string());
  ASSERT_EQ(First.store(*Db, Key), MeasurementCacheError::None);
  MeasurementLoadResult R = First.load(*TheSuite, makeNehalem(), Targets, Key);
  ASSERT_TRUE(R) << R.Message;
  MeasurementCache Second((Dir.Path / "second").string());
  ASSERT_EQ(Second.store(*R.Db, Key), MeasurementCacheError::None);
  std::string BytesA, BytesB;
  ASSERT_TRUE(First.backend().get(measurementCacheFileName(Key), BytesA));
  ASSERT_TRUE(Second.backend().get(measurementCacheFileName(Key), BytesB));
  EXPECT_FALSE(BytesA.empty());
  EXPECT_EQ(BytesA, BytesB);
}

//===----------------------------------------------------------------------===//
// Corruption: every failure is a typed error, never UB
//===----------------------------------------------------------------------===//

TEST_F(MeasurementCacheTest, EveryFlippedPayloadByteIsDetected) {
  // CRC-32 detects all single-byte errors, so flipping ANY payload byte
  // must fail before the structural decoder ever runs.
  std::string Bytes = serializeMeasurements(*Db, Key);
  for (std::size_t I = kMeasurementHeaderBytes; I < Bytes.size(); ++I) {
    std::string Damaged = Bytes;
    Damaged[I] = static_cast<char>(Damaged[I] ^ 0x40);
    MeasurementLoadResult R =
        parseMeasurements(Damaged, *TheSuite, makeNehalem(), Targets, Key);
    ASSERT_FALSE(R) << "byte " << I;
    EXPECT_EQ(R.Error, MeasurementCacheError::ChecksumMismatch)
        << "byte " << I;
  }
}

TEST_F(MeasurementCacheTest, HeaderDamageIsTyped) {
  std::string Bytes = serializeMeasurements(*Db, Key);

  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_EQ(parseMeasurements(BadMagic, *TheSuite, makeNehalem(), Targets, Key)
                .Error,
            MeasurementCacheError::BadMagic);

  std::string BadMajor = Bytes;
  patchU32(BadMajor, 8, kMeasurementVersionMajor + 1);
  EXPECT_EQ(parseMeasurements(BadMajor, *TheSuite, makeNehalem(), Targets, Key)
                .Error,
            MeasurementCacheError::UnsupportedVersion);

  std::string Short = Bytes.substr(0, Bytes.size() / 2);
  EXPECT_EQ(
      parseMeasurements(Short, *TheSuite, makeNehalem(), Targets, Key).Error,
      MeasurementCacheError::Truncated);

  EXPECT_EQ(parseMeasurements(Bytes.substr(0, 10), *TheSuite, makeNehalem(),
                              Targets, Key)
                .Error,
            MeasurementCacheError::Truncated);

  EXPECT_EQ(parseMeasurements(Bytes + "junk", *TheSuite, makeNehalem(),
                              Targets, Key)
                .Error,
            MeasurementCacheError::Malformed);

  std::string BadCrc = Bytes;
  patchU32(BadCrc, 24, 0xDEADBEEFu);
  EXPECT_EQ(
      parseMeasurements(BadCrc, *TheSuite, makeNehalem(), Targets, Key).Error,
      MeasurementCacheError::ChecksumMismatch);
}

TEST_F(MeasurementCacheTest, NonFiniteValuesAreRejected) {
  std::string Bytes = serializeMeasurements(*Db, Key);
  // Rather than compute the offset of a specific double, scan forward
  // planting a quiet NaN (with a fixed-up checksum, so the CRC stage
  // passes) until the finite-value validation rejects one.  Earlier
  // offsets land in the identity strings and fail as KeyMismatch — also
  // a typed error, never a crash.
  bool SawInvalidValue = false;
  for (std::size_t I = kMeasurementHeaderBytes; I + 8 <= Bytes.size(); ++I) {
    std::string Damaged = Bytes;
    patchU64(Damaged, I, 0x7ff8000000000000ull); // quiet NaN
    fixChecksum(Damaged);
    MeasurementLoadResult R =
        parseMeasurements(Damaged, *TheSuite, makeNehalem(), Targets, Key);
    if (!R && R.Error == MeasurementCacheError::InvalidValue) {
      SawInvalidValue = true;
      break;
    }
  }
  EXPECT_TRUE(SawInvalidValue);
}

TEST_F(MeasurementCacheTest, FeatureCountOfAnotherBuildIsRejected) {
  // An entry written by a build with another feature catalog (or crafted
  // with a valid checksum) must not reach the pipeline, which indexes
  // every profile's features by catalog position.
  for (std::size_t Count : {NumFeatures - 1, NumFeatures + 1}) {
    std::vector<CodeletProfile> Profiles;
    std::vector<StandaloneMeasurement> StandaloneRef;
    std::vector<std::vector<Measurement>> Real(Targets.size());
    std::vector<std::vector<StandaloneMeasurement>> StandaloneTgt(
        Targets.size());
    for (std::size_t I = 0; I < Db->numCodelets(); ++I) {
      Profiles.push_back(Db->profile(I));
      StandaloneRef.push_back(Db->standaloneRef(I));
      for (std::size_t T = 0; T < Targets.size(); ++T) {
        Real[T].push_back(Db->realTargetMeasurement(I, T));
        StandaloneTgt[T].push_back(Db->standaloneTarget(I, T));
      }
    }
    Profiles.back().Features.resize(Count, 1.0);
    MeasurementDatabase Other(*TheSuite, makeNehalem(), Targets,
                              std::move(Profiles), std::move(Real),
                              std::move(StandaloneRef),
                              std::move(StandaloneTgt));
    MeasurementLoadResult R =
        parseMeasurements(serializeMeasurements(Other, Key), *TheSuite,
                          makeNehalem(), Targets, Key);
    ASSERT_FALSE(R) << Count << " features";
    EXPECT_EQ(R.Error, MeasurementCacheError::Malformed) << Count;
    EXPECT_EQ(R.Message, "feature count does not match this build") << Count;
  }
}

TEST_F(MeasurementCacheTest, FutureMinorVersionSkipsTrailingFields) {
  std::string Bytes = serializeMeasurements(*Db, Key);
  Bytes.append("\x01\x02\x03\x04", 4);
  patchU32(Bytes, 12, kMeasurementVersionMinor + 1);
  patchU64(Bytes, 16, Bytes.size() - kMeasurementHeaderBytes);
  fixChecksum(Bytes);
  MeasurementLoadResult R =
      parseMeasurements(Bytes, *TheSuite, makeNehalem(), Targets, Key);
  ASSERT_TRUE(R) << R.Message;
  EXPECT_EQ(R.Db->numCodelets(), Db->numCodelets());
}

TEST_F(MeasurementCacheTest, MissingFileIsIo) {
  TempDir Dir("missing");
  MeasurementCache Cache(Dir.Path.string());
  MeasurementLoadResult R = Cache.load(*TheSuite, makeNehalem(), Targets, Key);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, MeasurementCacheError::Io);
}

// A directory where an entry's file should be is an unreadable entry:
// the backend's get() fails, without throwing, and every load reports Io.
TEST_F(MeasurementCacheTest, DirectoryInPlaceOfAnEntryIsIo) {
  TempDir Dir("directory_entry");
  const std::string Name = measurementCacheFileName(Key);
  std::filesystem::create_directory(Dir.Path / Name);

  LocalDirBackend Backend(Dir.Path.string());
  std::string Bytes = "untouched";
  EXPECT_FALSE(Backend.get(Name, Bytes));
  EXPECT_EQ(Bytes, "untouched");

  MeasurementCache Cache(Dir.Path.string());
  MeasurementLoadResult R = Cache.load(*TheSuite, makeNehalem(), Targets, Key);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, MeasurementCacheError::Io);

  // Nor is a FIFO an entry (and opening one must not block).
  ASSERT_EQ(::mkfifo((Dir.Path / "fifo").c_str(), 0600), 0);
  EXPECT_FALSE(Backend.get("fifo", Bytes));

  // An empty regular file still reads (as zero bytes).
  std::ofstream(Dir.Path / "empty").flush();
  EXPECT_TRUE(Backend.get("empty", Bytes));
  EXPECT_TRUE(Bytes.empty());
}

TEST_F(MeasurementCacheTest, EveryErrorHasAStableName) {
  EXPECT_STREQ(measurementCacheErrorName(MeasurementCacheError::None), "none");
  EXPECT_STREQ(measurementCacheErrorName(MeasurementCacheError::Io), "io");
  EXPECT_STREQ(measurementCacheErrorName(MeasurementCacheError::LockTimeout),
               "lock_timeout");
}

//===----------------------------------------------------------------------===//
// Content key
//===----------------------------------------------------------------------===//

TEST_F(MeasurementCacheTest, KeyCoversMachinesPolicyAndCodelets) {
  std::uint64_t Base = measurementKey(*TheSuite, makeNehalem(), Targets);
  EXPECT_EQ(Base, measurementKey(*TheSuite, makeNehalem(), Targets));

  // Any machine-configuration change re-keys the cache.
  std::vector<Machine> Tweaked = Targets;
  Tweaked[0].MemBandwidthGBs *= 2.0;
  EXPECT_NE(Base, measurementKey(*TheSuite, makeNehalem(), Tweaked));
  Tweaked = Targets;
  Tweaked[1].CacheLevels.back().SizeBytes /= 2;
  EXPECT_NE(Base, measurementKey(*TheSuite, makeNehalem(), Tweaked));

  // So does the timing policy...
  TimingPolicy Longer;
  Longer.MinRunSeconds = 1.0;
  EXPECT_NE(Base, measurementKey(*TheSuite, makeNehalem(), Targets, Longer));

  // ...and any codelet change.
  Suite Bigger = makeSyntheticSuite(smallConfig());
  Bigger.Applications[0].Codelets[0].Nest.InnerTripCount += 1;
  EXPECT_NE(Base, measurementKey(Bigger, makeNehalem(), Targets));
}

TEST_F(MeasurementCacheTest, WrongExpectedKeyIsKeyMismatch) {
  std::string Bytes = serializeMeasurements(*Db, Key);
  MeasurementLoadResult R =
      parseMeasurements(Bytes, *TheSuite, makeNehalem(), Targets, Key + 1);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, MeasurementCacheError::KeyMismatch);
}

//===----------------------------------------------------------------------===//
// buildMeasurementDatabase: the cached front-end
//===----------------------------------------------------------------------===//

TEST_F(MeasurementCacheTest, BuildStoresThenServesIdenticalDatabase) {
  TempDir Dir("build");
  DatabaseBuildOptions Options;
  Options.CacheDir = Dir.Path.string();

  auto Cold = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                       Options);
  ASSERT_TRUE(Cold);
  EXPECT_TRUE(std::filesystem::exists(Dir.Path / measurementCacheFileName(
                                                     Key)));
  auto Warm = buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets,
                                       Options);
  ASSERT_TRUE(Warm);
  EXPECT_EQ(serializeMeasurements(*Warm, Key),
            serializeMeasurements(*Cold, Key));
  EXPECT_EQ(serializeMeasurements(*Cold, Key), serializeMeasurements(*Db, Key));
}

TEST_F(MeasurementCacheTest, ChangedMachineConfigForcesResimulation) {
  TempDir Dir("rekey");
  DatabaseBuildOptions Options;
  Options.CacheDir = Dir.Path.string();

  auto First =
      buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets, Options);
  ASSERT_TRUE(First);

  // A tweaked target keys to a different file: the warm file for the old
  // configuration must not be served, and a fresh simulation must run.
  std::vector<Machine> Tweaked = Targets;
  Tweaked[0].MemBandwidthGBs *= 2.0;
  auto Second =
      buildMeasurementDatabase(*TheSuite, makeNehalem(), Tweaked, Options);
  ASSERT_TRUE(Second);
  std::uint64_t TweakedKey = measurementKey(*TheSuite, makeNehalem(), Tweaked);
  EXPECT_NE(TweakedKey, Key);
  EXPECT_TRUE(
      std::filesystem::exists(Dir.Path / measurementCacheFileName(TweakedKey)));
  // Doubled bandwidth must actually change some measurement.
  bool AnyDifferent = false;
  for (std::size_t I = 0; I < First->numCodelets(); ++I)
    AnyDifferent |= First->standaloneTarget(I, 0).MedianSeconds !=
                    Second->standaloneTarget(I, 0).MedianSeconds;
  EXPECT_TRUE(AnyDifferent);
}

TEST_F(MeasurementCacheTest, CorruptFileFallsBackToCleanResimulation) {
  TempDir Dir("corrupt");
  DatabaseBuildOptions Options;
  Options.CacheDir = Dir.Path.string();

  auto Cold =
      buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets, Options);
  ASSERT_TRUE(Cold);

  // Damage the stored file: the next build must warn, ignore it, and
  // still produce the exact uncached database (then re-store it).
  std::filesystem::path File = Dir.Path / measurementCacheFileName(Key);
  {
    std::ifstream In(File, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(Bytes.size(), kMeasurementHeaderBytes + 3);
    Bytes[kMeasurementHeaderBytes + 3] ^= 0x40;
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  auto Recovered =
      buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets, Options);
  ASSERT_TRUE(Recovered);
  EXPECT_EQ(serializeMeasurements(*Recovered, Key),
            serializeMeasurements(*Db, Key));

  // The re-store healed the file: a third build serves it cleanly.
  MeasurementCache Cache(Dir.Path.string());
  MeasurementLoadResult Healed =
      Cache.load(*TheSuite, makeNehalem(), Targets, Key);
  EXPECT_TRUE(Healed) << Healed.Message;
}

TEST_F(MeasurementCacheTest, NoCacheNeverTouchesDisk) {
  TempDir Dir("disabled");
  DatabaseBuildOptions Options;
  Options.CacheDir = Dir.Path.string();
  Options.UseCache = false;
  auto DbNoCache =
      buildMeasurementDatabase(*TheSuite, makeNehalem(), Targets, Options);
  ASSERT_TRUE(DbNoCache);
  EXPECT_TRUE(std::filesystem::is_empty(Dir.Path));
  EXPECT_EQ(serializeMeasurements(*DbNoCache, Key),
            serializeMeasurements(*Db, Key));
}
