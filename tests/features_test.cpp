//===- tests/features_test.cpp - Feature catalog and profiling ------------===//

#include "fgbs/analysis/Profiler.h"

#include "fgbs/dsl/Builder.h"

#include <gtest/gtest.h>

#include <set>

using namespace fgbs;

namespace {

Codelet divKernel(std::uint64_t Elems) {
  CodeletBuilder B("feat_div", "t");
  unsigned A = B.array("a", Precision::DP, Elems);
  B.loops(Elems);
  B.stmt(storeTo(B.at(A, StrideClass::Unit),
                 div(B.ld(A, StrideClass::Unit), constant(Precision::DP))));
  return B.take();
}

Codelet streamKernel(std::uint64_t Elems) {
  CodeletBuilder B("feat_stream", "t");
  unsigned A = B.array("a", Precision::DP, Elems);
  unsigned Bv = B.array("b", Precision::DP, Elems);
  B.loops(Elems);
  B.stmt(storeTo(B.at(A, StrideClass::Unit),
                 add(B.ld(Bv, StrideClass::Unit), constant(Precision::DP))));
  return B.take();
}

std::vector<double> featuresOf(const Codelet &C) {
  Machine Ref = makeNehalem();
  Measurement M = measureInApp(C, Ref);
  return computeFeatures(C, Ref, M);
}

} // namespace

TEST(FeatureCatalog, Has76Entries) {
  EXPECT_EQ(FeatureCatalog::get().size(), 76u);
  EXPECT_EQ(NumFeatures, 76u);
}

TEST(FeatureCatalog, Has40StaticAnd36Dynamic) {
  const FeatureCatalog &Cat = FeatureCatalog::get();
  EXPECT_EQ(Cat.staticIndices().size(), 40u);
  EXPECT_EQ(Cat.dynamicIndices().size(), 36u);
}

TEST(FeatureCatalog, NamesUnique) {
  const FeatureCatalog &Cat = FeatureCatalog::get();
  std::set<std::string> Names;
  for (std::size_t I = 0; I < Cat.size(); ++I)
    Names.insert(Cat.info(I).Name);
  EXPECT_EQ(Names.size(), Cat.size());
}

TEST(FeatureCatalog, Table2NamesResolve) {
  // The paper's Table 2 set: 4 Likwid + 10 MAQAO features.
  EXPECT_EQ(kTable2FeatureNames.size(), 14u);
  const FeatureCatalog &Cat = FeatureCatalog::get();
  unsigned Dynamic = 0;
  for (const std::string &Name : kTable2FeatureNames) {
    int Index = Cat.indexOf(Name);
    ASSERT_GE(Index, 0) << Name;
    Dynamic += Cat.info(static_cast<std::size_t>(Index)).Kind ==
               FeatureKind::Dynamic;
  }
  EXPECT_EQ(Dynamic, 4u);
}

TEST(FeatureCatalog, IndexOfUnknownIsMinusOne) {
  EXPECT_EQ(FeatureCatalog::get().indexOf("no.such.feature"), -1);
}

TEST(FeatureMaskOps, AllAndNamed) {
  FeatureMask All = allFeaturesMask();
  EXPECT_EQ(maskCount(All), 76u);
  FeatureMask Named = maskForNames(kTable2FeatureNames);
  EXPECT_EQ(maskCount(Named), 14u);
}

TEST(FeatureMaskOps, ApplyMaskProjects) {
  std::vector<double> Full(76);
  for (std::size_t I = 0; I < Full.size(); ++I)
    Full[I] = static_cast<double>(I);
  FeatureMask Mask(76, false);
  Mask[3] = Mask[10] = true;
  std::vector<double> Out = applyMask(Full, Mask);
  EXPECT_EQ(Out, (std::vector<double>{3.0, 10.0}));
  std::vector<std::size_t> Columns = maskColumns(Mask);
  EXPECT_EQ(Columns, (std::vector<std::size_t>{3, 10}));
  EXPECT_EQ(applyMask(Full, Columns), Out);
  Mask[0] = Mask[75] = true;
  EXPECT_EQ(maskColumns(Mask), (std::vector<std::size_t>{0, 3, 10, 75}));
  EXPECT_TRUE(maskColumns(FeatureMask(76, false)).empty());
}

TEST(Features, VectorHas76Entries) {
  EXPECT_EQ(featuresOf(streamKernel(1 << 20)).size(), 76u);
}

TEST(Features, DivCountSeparatesDivKernels) {
  const FeatureCatalog &Cat = FeatureCatalog::get();
  int DivIdx = Cat.indexOf("static.num_fp_div");
  ASSERT_GE(DivIdx, 0);
  std::vector<double> DivF = featuresOf(divKernel(1 << 20));
  std::vector<double> StreamF = featuresOf(streamKernel(1 << 20));
  EXPECT_GT(DivF[static_cast<std::size_t>(DivIdx)], 0.0);
  EXPECT_DOUBLE_EQ(StreamF[static_cast<std::size_t>(DivIdx)], 0.0);
}

TEST(Features, MemoryBandwidthHigherForStreaming) {
  const FeatureCatalog &Cat = FeatureCatalog::get();
  int BwIdx = Cat.indexOf("dynamic.memory_bandwidth_mbs");
  ASSERT_GE(BwIdx, 0);
  // 32 MB streaming vs 64 KB resident.
  std::vector<double> Big = featuresOf(streamKernel(4 << 20));
  std::vector<double> Small = featuresOf(streamKernel(8 << 10));
  EXPECT_GT(Big[static_cast<std::size_t>(BwIdx)],
            Small[static_cast<std::size_t>(BwIdx)]);
}

TEST(Features, VectorizationRatioReflectsCompilation) {
  const FeatureCatalog &Cat = FeatureCatalog::get();
  int VecIdx = Cat.indexOf("static.vec_ratio_overall");
  ASSERT_GE(VecIdx, 0);
  std::vector<double> F = featuresOf(streamKernel(1 << 20));
  EXPECT_DOUBLE_EQ(F[static_cast<std::size_t>(VecIdx)], 100.0);
}

TEST(Profiler, DiscardsSubMillionCycleCodelets) {
  Suite S;
  S.Name = "mini";
  Application App;
  App.Name = "t";
  App.Codelets.push_back(streamKernel(1 << 21)); // ~ms: kept.
  App.Codelets.push_back(streamKernel(1 << 10)); // ~us: discarded.
  S.Applications.push_back(std::move(App));
  const Machine Ref = makeNehalem();
  std::vector<const Codelet *> Codelets = S.allCodelets();
  ASSERT_EQ(Codelets.size(), 2u);
  EXPECT_FALSE(profileCodelet(*Codelets[0], Ref).Discarded);
  EXPECT_TRUE(profileCodelet(*Codelets[1], Ref).Discarded);
}

TEST(Profiler, InAppAveragesInvocationGroups) {
  CodeletBuilder B("groups", "t");
  unsigned A = B.array("a", Precision::DP, 1 << 20);
  B.loops(1 << 20);
  B.stmt(storeTo(B.at(A, StrideClass::Unit),
                 mul(B.ld(A, StrideClass::Unit), constant(Precision::DP))));
  B.invocations(1, 1.0);
  B.invocations(1, 0.5);
  Codelet C = B.take();
  Machine Ref = makeNehalem();
  Measurement Avg = measureInApp(C, Ref);

  ExecutionRequest Full;
  Full.DatasetScale = 1.0;
  ExecutionRequest Half;
  Half.DatasetScale = 0.5;
  double Expect = 0.5 * (execute(C, Ref, Full).MeasuredSeconds +
                         execute(C, Ref, Half).MeasuredSeconds);
  EXPECT_NEAR(Avg.MeasuredSeconds, Expect, 1e-12);
}
