//===- fgbs/analysis/Profiler.cpp - Step B: reference profiling -----------===//

#include "fgbs/analysis/Profiler.h"

#include <cassert>

using namespace fgbs;

Measurement fgbs::measureInApp(const Codelet &C, const Machine &M,
                               CompileCache *Compile) {
  assert(!C.Invocations.empty() && "codelet without invocations");
  Measurement Avg;
  double TotalWeight = 0.0;
  bool First = true;
  for (const InvocationGroup &G : C.Invocations) {
    ExecutionRequest R;
    R.DatasetScale = G.DatasetScale;
    R.Context = CompilationContext::InApplication;
    R.WarmCacheReplay = false;
    R.Compile = Compile;
    Measurement One = execute(C, M, R);
    double W = static_cast<double>(G.Count);
    TotalWeight += W;

    Avg.TrueSeconds += W * One.TrueSeconds;
    Avg.MeasuredSeconds += W * One.MeasuredSeconds;
    Avg.MemCyclesPerIter += W * One.MemCyclesPerIter;
    Avg.Counters.Cycles += W * One.Counters.Cycles;
    Avg.Counters.Uops += W * One.Counters.Uops;
    Avg.Counters.FpOpsSP += W * One.Counters.FpOpsSP;
    Avg.Counters.FpOpsDP += W * One.Counters.FpOpsDP;
    Avg.Counters.L1Accesses += W * One.Counters.L1Accesses;
    Avg.Counters.L2LinesIn += W * One.Counters.L2LinesIn;
    Avg.Counters.L3LinesIn += W * One.Counters.L3LinesIn;
    Avg.Counters.MemLinesIn += W * One.Counters.MemLinesIn;
    Avg.Counters.LoadBytes += W * One.Counters.LoadBytes;
    Avg.Counters.StoreBytes += W * One.Counters.StoreBytes;
    Avg.Counters.Seconds += W * One.Counters.Seconds;
    if (First) {
      Avg.Compute = One.Compute;
      First = false;
    }
  }
  assert(TotalWeight > 0.0 && "zero invocations");
  double Inv = 1.0 / TotalWeight;
  Avg.TrueSeconds *= Inv;
  Avg.MeasuredSeconds *= Inv;
  Avg.MemCyclesPerIter *= Inv;
  Avg.Counters.Cycles *= Inv;
  Avg.Counters.Uops *= Inv;
  Avg.Counters.FpOpsSP *= Inv;
  Avg.Counters.FpOpsDP *= Inv;
  Avg.Counters.L1Accesses *= Inv;
  Avg.Counters.L2LinesIn *= Inv;
  Avg.Counters.L3LinesIn *= Inv;
  Avg.Counters.MemLinesIn *= Inv;
  Avg.Counters.LoadBytes *= Inv;
  Avg.Counters.StoreBytes *= Inv;
  Avg.Counters.Seconds *= Inv;
  return Avg;
}

CodeletProfile fgbs::profileCodelet(const Codelet &C, const Machine &Ref,
                                    CompileCache *Compile) {
  CodeletProfile P;
  P.C = &C;
  P.InApp = measureInApp(C, Ref, Compile);
  P.Features = computeFeatures(C, Ref, P.InApp, Compile);
  // "We discard codelets with execution time under one million cycles
  // because they are too short to be accurately measured."
  P.Discarded = P.InApp.Counters.Cycles < 1e6;
  return P;
}
