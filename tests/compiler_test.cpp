//===- tests/compiler_test.cpp - Lowering and vectorization ---------------===//

#include "fgbs/compiler/Compiler.h"
#include "fgbs/dsl/Builder.h"
#include "fgbs/sim/Executor.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace fgbs;

namespace {

/// A single-statement codelet: store(a[i]) = x[i] * c with the given
/// load stride.
Codelet strideCodelet(StrideClass Stride, Precision Prec = Precision::DP) {
  CodeletBuilder B("stride", "t");
  unsigned A = B.array("a", Prec, 4096);
  unsigned X = B.array("x", Prec, 4096);
  B.loops(4096);
  B.stmt(storeTo(B.at(A, StrideClass::Unit),
                 mul(B.ld(X, Stride), constant(Prec))));
  return B.take();
}

Codelet reductionCodelet(Precision Prec = Precision::DP) {
  CodeletBuilder B("red", "t");
  unsigned X = B.array("x", Prec, 4096);
  B.loops(4096);
  B.stmt(reduce(BinOp::Add, B.ld(X, StrideClass::Unit)));
  return B.take();
}

Codelet recurrenceCodelet() {
  CodeletBuilder B("rec", "t");
  unsigned X = B.array("x", Precision::DP, 4096);
  unsigned Y = B.array("y", Precision::DP, 4096);
  B.loops(4096);
  B.stmt(recurrence(B.at(X, StrideClass::Unit),
                    add(mul(B.ld(Y, StrideClass::Unit),
                            constant(Precision::DP)),
                        constant(Precision::DP))));
  return B.take();
}

} // namespace

struct StrideVectorizationCase {
  StrideClass Stride;
  bool ExpectVector;
  /// gtest has no printer for this struct, so each case's name shows its
  /// bytes.  These three would otherwise be padding holding whatever the
  /// stack held, and the names would change from run to run.
  char Zero[3] = {};
};
static_assert(std::has_unique_object_representations_v<StrideVectorizationCase>,
              "every byte of a case must be a member");

class VectorizationStrides
    : public ::testing::TestWithParam<StrideVectorizationCase> {};

TEST_P(VectorizationStrides, LegalityFollowsStrideClass) {
  const StrideVectorizationCase &Case = GetParam();
  Codelet C = strideCodelet(Case.Stride);
  Machine M = makeNehalem();
  VectorizationDecision D = decideVectorization(
      C, C.Body[0], M, CompilationContext::InApplication);
  EXPECT_EQ(D.Vectorized, Case.ExpectVector)
      << strideClassName(Case.Stride) << ": " << D.Reason;
  if (D.Vectorized) {
    EXPECT_EQ(D.VectorFactor, 2u); // 128-bit DP.
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrides, VectorizationStrides,
    ::testing::Values(StrideVectorizationCase{StrideClass::Zero, true},
                      StrideVectorizationCase{StrideClass::Unit, true},
                      StrideVectorizationCase{StrideClass::Stencil, true},
                      StrideVectorizationCase{StrideClass::NegUnit, false},
                      StrideVectorizationCase{StrideClass::Small, false},
                      StrideVectorizationCase{StrideClass::Lda, false}));

TEST(Compiler, SpVectorFactorIsFour) {
  Codelet C = strideCodelet(StrideClass::Unit, Precision::SP);
  VectorizationDecision D = decideVectorization(
      C, C.Body[0], makeNehalem(), CompilationContext::InApplication);
  EXPECT_TRUE(D.Vectorized);
  EXPECT_EQ(D.VectorFactor, 4u); // 128-bit SP.
}

TEST(Compiler, RecurrenceNeverVectorizes) {
  Codelet C = recurrenceCodelet();
  VectorizationDecision D = decideVectorization(
      C, C.Body[0], makeNehalem(), CompilationContext::InApplication);
  EXPECT_FALSE(D.Vectorized);
  EXPECT_STREQ(D.Reason, "loop-carried recurrence");
}

TEST(Compiler, ReductionsVectorize) {
  Codelet C = reductionCodelet();
  VectorizationDecision D = decideVectorization(
      C, C.Body[0], makeNehalem(), CompilationContext::InApplication);
  EXPECT_TRUE(D.Vectorized);
}

TEST(Compiler, ContextSensitiveLosesVectorizationStandalone) {
  Codelet C = strideCodelet(StrideClass::Unit);
  C.Traits.CompilationContextSensitive = true;
  Machine M = makeNehalem();
  EXPECT_TRUE(decideVectorization(C, C.Body[0], M,
                                  CompilationContext::InApplication)
                  .Vectorized);
  EXPECT_FALSE(decideVectorization(C, C.Body[0], M,
                                   CompilationContext::Standalone)
                   .Vectorized);
}

TEST(Compiler, ContextInsensitiveUnchangedStandalone) {
  Codelet C = strideCodelet(StrideClass::Unit);
  BinaryLoop InApp = compile(C, makeNehalem(),
                             CompilationContext::InApplication);
  BinaryLoop Alone = compile(C, makeNehalem(), CompilationContext::Standalone);
  EXPECT_EQ(InApp.Body.size(), Alone.Body.size());
  EXPECT_EQ(InApp.vectorizedPercent(), Alone.vectorizedPercent());
}

TEST(Compiler, ElementsPerIterationVectorized) {
  Codelet C = strideCodelet(StrideClass::Unit);
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  // Unroll 4 x VF 2.
  EXPECT_EQ(Loop.UnrollFactor, 4u);
  EXPECT_EQ(Loop.ElementsPerIter, 8u);
  EXPECT_TRUE(Loop.anyVector());
  EXPECT_EQ(vectorizationTag(Loop), "V");
  EXPECT_DOUBLE_EQ(Loop.vectorizedPercent(), 100.0);
}

TEST(Compiler, ElementsPerIterationScalar) {
  Codelet C = strideCodelet(StrideClass::Lda);
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  EXPECT_EQ(Loop.ElementsPerIter, 4u); // Unroll 4 x VF 1.
  EXPECT_FALSE(Loop.anyVector());
  EXPECT_EQ(vectorizationTag(Loop), "S");
  EXPECT_DOUBLE_EQ(Loop.vectorizedPercent(), 0.0);
}

TEST(Compiler, MixedStatementsGiveVPlusS) {
  CodeletBuilder B("mix", "t");
  unsigned A = B.array("a", Precision::DP, 4096);
  unsigned X = B.array("x", Precision::DP, 4096);
  B.loops(4096);
  B.stmt(storeTo(B.at(A, StrideClass::Unit),
                 mul(B.ld(X, StrideClass::Unit), constant(Precision::DP))));
  B.stmt(storeTo(B.at(A, StrideClass::Lda),
                 mul(B.ld(X, StrideClass::Lda), constant(Precision::DP))));
  Codelet C = B.take();
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  EXPECT_EQ(vectorizationTag(Loop), "V + S");
  EXPECT_GT(Loop.vectorizedPercent(), 0.0);
  EXPECT_LT(Loop.vectorizedPercent(), 100.0);
}

TEST(Compiler, MixedPrecisionEmitsConversions) {
  CodeletBuilder B("mp", "t");
  unsigned A = B.array("a", Precision::SP, 4096);
  unsigned X = B.array("x", Precision::DP, 4096);
  B.loops(4096);
  B.stmt(reduce(BinOp::Add,
                mul(B.ld(A, StrideClass::Unit), B.ld(X, StrideClass::Unit))));
  Codelet C = B.take();
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  EXPECT_GT(Loop.countKind(OpKind::MoveReg), 0u);
}

TEST(Compiler, ReductionChainParallelism) {
  Codelet C = reductionCodelet();
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  // Four unrolled copies = four private accumulators.
  EXPECT_EQ(Loop.ChainParallelism, 4u);
  EXPECT_EQ(Loop.CritChainOps.size(), 4u);
}

TEST(Compiler, RecurrenceChainSerial) {
  Codelet C = recurrenceCodelet();
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  EXPECT_EQ(Loop.ChainParallelism, 1u);
  // Each unrolled element contributes chain steps (load + mul + add).
  EXPECT_GE(Loop.CritChainOps.size(), 8u);
}

TEST(Compiler, LoopOverheadPresent) {
  Codelet C = strideCodelet(StrideClass::Unit);
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  EXPECT_EQ(Loop.countKind(OpKind::Branch), 1u);
  EXPECT_EQ(Loop.countKind(OpKind::Compare), 1u);
}

TEST(Compiler, ClassStatsConsistent) {
  Codelet C = strideCodelet(StrideClass::Unit);
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  unsigned Total = 0;
  for (const OpClassStats &S : Loop.ClassStats)
    Total += S.total();
  EXPECT_EQ(Total, Loop.Body.size());
}

TEST(Compiler, FlopsPerIter) {
  Codelet C = strideCodelet(StrideClass::Unit); // 1 mul per element.
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  EXPECT_EQ(Loop.flopsPerIter(), Loop.ElementsPerIter);
}

TEST(CompilerOptionsTest, NoVecForcesScalar) {
  Codelet C = strideCodelet(StrideClass::Unit);
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication,
                            CompilerOptions::noVec());
  EXPECT_FALSE(Loop.anyVector());
  EXPECT_EQ(Loop.ElementsPerIter, 4u); // Unroll only.
}

TEST(CompilerOptionsTest, StrictFpKeepsFpReductionsScalarAndSerial) {
  Codelet C = reductionCodelet();
  BinaryLoop Strict = compile(C, makeNehalem(),
                              CompilationContext::InApplication,
                              CompilerOptions::strictFp());
  EXPECT_FALSE(Strict.anyVector());
  EXPECT_EQ(Strict.ChainParallelism, 1u);
  BinaryLoop Fast = compile(C, makeNehalem(),
                            CompilationContext::InApplication,
                            CompilerOptions::o3());
  EXPECT_GT(Fast.ChainParallelism, 1u);
}

TEST(CompilerOptionsTest, StrictFpAllowsIntegerReductions) {
  Codelet C = reductionCodelet(Precision::I32);
  VectorizationDecision D = decideVectorization(
      C, C.Body[0], makeNehalem(), CompilationContext::InApplication,
      CompilerOptions::strictFp());
  EXPECT_TRUE(D.Vectorized);
}

TEST(CompilerOptionsTest, UnrollFactorHonoredAndClamped) {
  Codelet C = strideCodelet(StrideClass::Unit);
  CompilerOptions Options;
  Options.UnrollFactor = 2;
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication, Options);
  EXPECT_EQ(Loop.UnrollFactor, 2u);
  EXPECT_EQ(Loop.ElementsPerIter, 4u); // 2 x VF 2.
  Options.UnrollFactor = 100;
  BinaryLoop Clamped = compile(C, makeNehalem(),
                               CompilationContext::InApplication, Options);
  EXPECT_EQ(Clamped.UnrollFactor, 8u);
}

TEST(CompilerOptionsTest, Names) {
  EXPECT_EQ(CompilerOptions::o3().name(), "-O3");
  EXPECT_EQ(CompilerOptions::noVec().name(), "-O3 -no-vec");
  EXPECT_EQ(CompilerOptions::strictFp().name(), "-O3 -fp-model=strict");
  EXPECT_EQ(CompilerOptions::noUnroll().name(), "-O3 -unroll=1");
}

TEST(CompilerOptionsTest, NoVecSlowerOnVectorizableKernel) {
  Codelet C = strideCodelet(StrideClass::Unit);
  // Small footprint: compute bound, so vectorization matters.
  C.Arrays[0].NumElements = C.Arrays[1].NumElements = 2048;
  Machine M = makeNehalem();
  ExecutionRequest Fast;
  ExecutionRequest Slow;
  Slow.Options = CompilerOptions::noVec();
  EXPECT_GT(execute(C, M, Slow).TrueSeconds,
            execute(C, M, Fast).TrueSeconds);
}

TEST(Compiler, CodeBytesAndRegisters) {
  Codelet C = strideCodelet(StrideClass::Unit);
  BinaryLoop Loop = compile(C, makeNehalem(),
                            CompilationContext::InApplication);
  EXPECT_EQ(Loop.CodeBytes, Loop.Body.size() * 5);
  EXPECT_GT(Loop.NumRegisters, 0u);
  EXPECT_LE(Loop.NumRegisters, makeNehalem().NumFpRegisters);
}
