//===- tests/service_test.cpp - Model snapshots + query service -----------===//

#include "fgbs/service/SelectionService.h"
#include "fgbs/service/Snapshot.h"

#include "fgbs/suites/Suites.h"
#include "fgbs/support/Crc32.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

using namespace fgbs;
using namespace fgbs::service;

namespace {

//===----------------------------------------------------------------------===//
// Shared NR-trained model (built once; several suites reuse it)
//===----------------------------------------------------------------------===//

class ServiceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    TheSuite = new Suite(makeNumericalRecipes());
    Db = new MeasurementDatabase(*TheSuite, makeNehalem(), paperTargets());
    Result = new PipelineResult(Pipeline(*Db, PipelineConfig()).run());
    Model = new ModelSnapshot(buildSnapshot(*Db, *Result));
  }
  static void TearDownTestSuite() {
    delete Model;
    delete Result;
    delete Db;
    delete TheSuite;
    Model = nullptr;
    Result = nullptr;
    Db = nullptr;
    TheSuite = nullptr;
  }

  static Suite *TheSuite;
  static MeasurementDatabase *Db;
  static PipelineResult *Result;
  static ModelSnapshot *Model;
};

Suite *ServiceTest::TheSuite = nullptr;
MeasurementDatabase *ServiceTest::Db = nullptr;
PipelineResult *ServiceTest::Result = nullptr;
ModelSnapshot *ServiceTest::Model = nullptr;

//===----------------------------------------------------------------------===//
// Byte-patching helpers for the corruption tests
//===----------------------------------------------------------------------===//

void patchU32(std::string &Bytes, std::size_t Offset, std::uint32_t V) {
  for (int B = 0; B < 4; ++B)
    Bytes[Offset + B] = static_cast<char>((V >> (8 * B)) & 0xffu);
}

void patchU64(std::string &Bytes, std::size_t Offset, std::uint64_t V) {
  for (int B = 0; B < 8; ++B)
    Bytes[Offset + B] = static_cast<char>((V >> (8 * B)) & 0xffu);
}

/// Rewrites the header CRC to match the (possibly modified) payload, so
/// tests can target post-checksum validation stages.
void fixChecksum(std::string &Bytes) {
  patchU32(Bytes, 24,
           crc32(std::string_view(Bytes).substr(kSnapshotHeaderBytes)));
}

} // namespace

//===----------------------------------------------------------------------===//
// Building and round-tripping
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, BuildSnapshotShape) {
  EXPECT_EQ(Model->SuiteName, "Numerical Recipes");
  EXPECT_EQ(Model->ReferenceName, "Nehalem");
  EXPECT_EQ(Model->numFeatures(), NumFeatures);
  EXPECT_EQ(Model->numSelectedFeatures(), maskCount(Model->Mask));
  EXPECT_EQ(Model->numClusters(), Result->Selection.FinalK);
  EXPECT_EQ(Model->numCodelets(), Result->Kept.size());
  EXPECT_EQ(Model->numTargets(), Db->targets().size());

  std::string Message;
  EXPECT_EQ(validateSnapshot(*Model, Message), SnapshotError::None) << Message;
}

TEST_F(ServiceTest, SaveLoadSaveIsByteIdentical) {
  std::string First = serializeSnapshot(*Model);
  SnapshotLoadResult Loaded = parseSnapshot(First);
  ASSERT_TRUE(Loaded) << Loaded.Message;
  std::string Second = serializeSnapshot(*Loaded.Snapshot);
  EXPECT_EQ(First, Second);

  // And once more through the loaded copy: the format is a fixed point.
  SnapshotLoadResult Again = parseSnapshot(Second);
  ASSERT_TRUE(Again);
  EXPECT_EQ(serializeSnapshot(*Again.Snapshot), Second);
}

// saveSnapshotFile publishes by rename: a reader that opened the old
// file before a rewrite keeps reading the old bytes whole, and a reader
// that opens it after reads the new ones.
TEST_F(ServiceTest, SaveSnapshotFileNeverTearsAnOpenReader) {
  std::string Path = ::testing::TempDir() + "service_roundtrip.fgbs";
  ASSERT_TRUE(saveSnapshotFile(Path, *Model));
  const std::string Old = serializeSnapshot(*Model);
  std::ifstream Reader(Path, std::ios::binary);
  ASSERT_TRUE(Reader);

  ModelSnapshot Renamed = *Model;
  Renamed.SuiteName = "Renamed Recipes";
  ASSERT_TRUE(saveSnapshotFile(Path, Renamed));

  std::string Read((std::istreambuf_iterator<char>(Reader)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(Read == Old) << "the open reader got " << Read.size()
                           << " bytes, not the old " << Old.size();
  SnapshotLoadResult FromFile = loadSnapshotFile(Path);
  ASSERT_TRUE(FromFile) << FromFile.Message;
  EXPECT_EQ(serializeSnapshot(*FromFile.Snapshot), serializeSnapshot(Renamed));
}

TEST(SnapshotLoad, MissingFileIsIoError) {
  SnapshotLoadResult R = loadSnapshotFile("/nonexistent/model.fgbs");
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, SnapshotError::Io);
}

// A directory is not a snapshot file: an I/O error, not a damaged file.
TEST(SnapshotLoad, DirectoryIsIoError) {
  SnapshotLoadResult R = loadSnapshotFile(::testing::TempDir());
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, SnapshotError::Io);
}

//===----------------------------------------------------------------------===//
// Corruption classes: every damage pattern yields the right typed error
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, TruncatedHeaderIsTruncated) {
  std::string Bytes = serializeSnapshot(*Model);
  for (std::size_t Keep : {std::size_t(0), std::size_t(4), std::size_t(8),
                           std::size_t(20), kSnapshotHeaderBytes - 1}) {
    SnapshotLoadResult R =
        parseSnapshot(std::string_view(Bytes).substr(0, Keep));
    EXPECT_FALSE(R);
    EXPECT_EQ(R.Error, SnapshotError::Truncated) << "kept " << Keep;
  }
}

TEST_F(ServiceTest, TruncatedPayloadIsTruncated) {
  std::string Bytes = serializeSnapshot(*Model);
  SnapshotLoadResult R =
      parseSnapshot(std::string_view(Bytes).substr(0, Bytes.size() - 1));
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, SnapshotError::Truncated);
}

TEST_F(ServiceTest, WrongMagicIsBadMagic) {
  std::string Bytes = serializeSnapshot(*Model);
  Bytes[0] = 'X';
  SnapshotLoadResult R = parseSnapshot(Bytes);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, SnapshotError::BadMagic);

  // Magic wins even over truncation: a short non-snapshot file is
  // reported as not-a-snapshot, not as a truncated snapshot.
  SnapshotLoadResult Short = parseSnapshot("NOTMODEL");
  EXPECT_EQ(Short.Error, SnapshotError::BadMagic);
}

TEST_F(ServiceTest, FutureMajorVersionIsUnsupported) {
  std::string Bytes = serializeSnapshot(*Model);
  patchU32(Bytes, 8, kSnapshotVersionMajor + 1);
  SnapshotLoadResult R = parseSnapshot(Bytes);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, SnapshotError::UnsupportedVersion);
  EXPECT_NE(R.Message.find(std::to_string(kSnapshotVersionMajor + 1)),
            std::string::npos);
}

TEST_F(ServiceTest, EveryFlippedPayloadByteIsDetected) {
  // Property-style sweep: flipping ANY single payload byte must fail the
  // checksum (CRC-32 detects all 1-byte errors) — corruption can never
  // slip through to the structural decoder.
  std::string Bytes = serializeSnapshot(*Model);
  for (std::size_t I = kSnapshotHeaderBytes; I < Bytes.size(); I += 97) {
    std::string Damaged = Bytes;
    Damaged[I] = static_cast<char>(Damaged[I] ^ 0x40);
    SnapshotLoadResult R = parseSnapshot(Damaged);
    EXPECT_FALSE(R);
    EXPECT_EQ(R.Error, SnapshotError::ChecksumMismatch) << "byte " << I;
  }
}

TEST_F(ServiceTest, TrailingGarbageIsMalformed) {
  std::string Bytes = serializeSnapshot(*Model);
  SnapshotLoadResult R = parseSnapshot(Bytes + "junk");
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, SnapshotError::Malformed);
}

TEST_F(ServiceTest, FutureMinorVersionSkipsUnknownFields) {
  // A v1.(N+1) writer appends fields after ours; this reader must load
  // the prefix it understands and ignore the rest.
  std::string Bytes = serializeSnapshot(*Model);
  Bytes.append("\x01\x02\x03\x04", 4);
  patchU32(Bytes, 12, kSnapshotVersionMinor + 1);
  patchU64(Bytes, 16, Bytes.size() - kSnapshotHeaderBytes);
  fixChecksum(Bytes);
  SnapshotLoadResult R = parseSnapshot(Bytes);
  ASSERT_TRUE(R) << R.Message;
  EXPECT_EQ(R.Snapshot->Assignment, Model->Assignment);

  // The same trailing bytes on our OWN minor version are structural
  // damage, not extensions.
  std::string OwnMinor = serializeSnapshot(*Model);
  OwnMinor.append("\x01\x02\x03\x04", 4);
  patchU64(OwnMinor, 16, OwnMinor.size() - kSnapshotHeaderBytes);
  fixChecksum(OwnMinor);
  SnapshotLoadResult Rejected = parseSnapshot(OwnMinor);
  EXPECT_FALSE(Rejected);
  EXPECT_EQ(Rejected.Error, SnapshotError::Malformed);
}

TEST_F(ServiceTest, NaNReferenceTimeIsInvalidValue) {
  // ReferenceSeconds sit N*8 bytes before the target block; patch the
  // first one to NaN and re-checksum so validation (not the CRC) trips.
  ModelSnapshot Damaged = *Model;
  Damaged.ReferenceSeconds[0] = std::nan("");
  std::string Bytes = serializeSnapshot(Damaged);
  fixChecksum(Bytes);
  SnapshotLoadResult R = parseSnapshot(Bytes);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, SnapshotError::InvalidValue);
}

//===----------------------------------------------------------------------===//
// validateSnapshot: dimension and range damage
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, ValidateCatchesStructuralDamage) {
  std::string Message;

  ModelSnapshot S = *Model;
  S.Centroids[0].pop_back();
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::Malformed);

  S = *Model;
  S.Assignment[0] = static_cast<int>(S.numClusters());
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::Malformed);

  S = *Model;
  S.Representatives[0] = static_cast<std::uint32_t>(S.numCodelets());
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::Malformed);

  // A representative must belong to the cluster it represents.
  S = *Model;
  ASSERT_GE(S.numClusters(), 2u);
  std::swap(S.Representatives[0], S.Representatives[1]);
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::Malformed);

  S = *Model;
  S.Norm.Mean.pop_back();
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::Malformed);

  S = *Model;
  S.Mask.assign(S.Mask.size(), false);
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::Malformed);

  S = *Model;
  S.Targets[0].RepresentativeSeconds.pop_back();
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::Malformed);

  S = *Model;
  S.Norm.Std[0] = -1.0;
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::InvalidValue);

  S = *Model;
  S.Targets[0].RepresentativeSeconds[0] = 0.0;
  EXPECT_EQ(validateSnapshot(S, Message), SnapshotError::InvalidValue);
}

TEST(SnapshotErrors, EveryErrorHasAStableName) {
  EXPECT_STREQ(snapshotErrorName(SnapshotError::None), "none");
  EXPECT_STREQ(snapshotErrorName(SnapshotError::Io), "io");
  EXPECT_STREQ(snapshotErrorName(SnapshotError::Truncated), "truncated");
  EXPECT_STREQ(snapshotErrorName(SnapshotError::BadMagic), "bad_magic");
  EXPECT_STREQ(snapshotErrorName(SnapshotError::UnsupportedVersion),
               "unsupported_version");
  EXPECT_STREQ(snapshotErrorName(SnapshotError::ChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(snapshotErrorName(SnapshotError::Malformed), "malformed");
  EXPECT_STREQ(snapshotErrorName(SnapshotError::InvalidValue),
               "invalid_value");
}

//===----------------------------------------------------------------------===//
// The query engine agrees with the in-process pipeline
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, ClassifyReproducesTrainingAssignment) {
  SelectionService Svc(*Model);
  for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
    ClassifyResult C =
        Svc.classify(Db->profile(Result->Kept[I]).Features);
    EXPECT_EQ(static_cast<int>(C.Cluster), Result->Selection.Assignment[I])
        << "codelet " << Model->CodeletNames[I];
  }
}

TEST_F(ServiceTest, PredictMatchesPipelineWithin1e9) {
  SelectionService Svc(*Model);
  for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
    QueryRequest Q;
    Q.Features = Db->profile(Result->Kept[I]).Features;
    Q.ReferenceSeconds = Db->profile(Result->Kept[I]).InApp.MeasuredSeconds;
    PredictResult P = Svc.predictTimes(Q);
    ASSERT_EQ(P.PredictedSeconds.size(), Result->Targets.size());
    for (std::size_t T = 0; T < Result->Targets.size(); ++T) {
      double Expected = Result->Targets[T].Predicted[I];
      EXPECT_NEAR(P.PredictedSeconds[T], Expected,
                  1e-9 * std::max(1.0, std::fabs(Expected)))
          << Model->CodeletNames[I] << " on "
          << Result->Targets[T].MachineName;
    }
  }
}

TEST_F(ServiceTest, NormalizeMatchesTrainingPoints) {
  SelectionService Svc(*Model);
  for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
    std::vector<double> Point =
        Svc.normalize(Db->profile(Result->Kept[I]).Features);
    ASSERT_EQ(Point.size(), Result->Points[I].size());
    for (std::size_t D = 0; D < Point.size(); ++D)
      EXPECT_DOUBLE_EQ(Point[D], Result->Points[I][D]);
  }
}

TEST_F(ServiceTest, RankMachinesOrdersByGeomeanSpeedup) {
  SelectionService Svc(*Model);
  std::vector<QueryRequest> Queries;
  for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
    QueryRequest Q;
    Q.Features = Db->profile(Result->Kept[I]).Features;
    Q.ReferenceSeconds = Db->profile(Result->Kept[I]).InApp.MeasuredSeconds;
    Queries.push_back(std::move(Q));
  }
  std::vector<MachineRank> Ranking = Svc.rankMachines(Queries);
  ASSERT_EQ(Ranking.size(), Model->numTargets());
  for (std::size_t I = 1; I < Ranking.size(); ++I)
    EXPECT_GE(Ranking[I - 1].GeomeanSpeedup, Ranking[I].GeomeanSpeedup);

  // Every ranked machine is a snapshot target, each exactly once.
  std::set<std::string> Names;
  for (const MachineRank &R : Ranking)
    Names.insert(R.MachineName);
  EXPECT_EQ(Names.size(), Model->numTargets());
}

TEST_F(ServiceTest, ConcurrentReadersAgree) {
  // The acceptance bar: >= 4 threads hammering one immutable service
  // must all see identical answers (and no data race under sanitizers).
  SelectionService Svc(*Model);
  std::vector<PredictResult> Expected;
  for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
    QueryRequest Q;
    Q.Features = Db->profile(Result->Kept[I]).Features;
    Q.ReferenceSeconds = Db->profile(Result->Kept[I]).InApp.MeasuredSeconds;
    Expected.push_back(Svc.predictTimes(Q));
  }

  constexpr unsigned NumThreads = 6;
  constexpr unsigned Rounds = 25;
  std::vector<unsigned> Mismatches(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned Round = 0; Round < Rounds; ++Round) {
        for (std::size_t I = 0; I < Result->Kept.size(); ++I) {
          QueryRequest Q;
          Q.Features = Db->profile(Result->Kept[I]).Features;
          Q.ReferenceSeconds =
              Db->profile(Result->Kept[I]).InApp.MeasuredSeconds;
          PredictResult P = Svc.predictTimes(Q);
          if (P.Classified.Cluster != Expected[I].Classified.Cluster ||
              P.PredictedSeconds != Expected[I].PredictedSeconds)
            ++Mismatches[T];
        }
      }
    });
  }
  for (std::thread &Thread : Threads)
    Thread.join();
  for (unsigned T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Mismatches[T], 0u) << "thread " << T;
}
