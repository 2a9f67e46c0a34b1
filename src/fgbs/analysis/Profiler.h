//===- fgbs/analysis/Profiler.h - Step B: reference profiling --*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Step B of the method: profile every codelet on the reference
/// architecture, in application context, and tag it with its 76-entry
/// feature vector.  Codelets running under one million cycles are flagged
/// as too short to measure accurately and discarded from clustering
/// (paper section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_ANALYSIS_PROFILER_H
#define FGBS_ANALYSIS_PROFILER_H

#include "fgbs/analysis/Features.h"

namespace fgbs {

/// Profile of one codelet on the reference architecture.
struct CodeletProfile {
  const Codelet *C = nullptr;
  /// In-application measurement averaged over all invocation groups.
  Measurement InApp;
  /// The full 76-entry feature vector.
  std::vector<double> Features;
  /// True when the codelet's invocation runs under one million cycles
  /// and is excluded from the study.
  bool Discarded = false;
};

/// Measures \p C on \p M inside its application: per-invocation times
/// and counters are averaged over the invocation groups, weighted by
/// invocation count (this is what Likwid probes around the in-app
/// hotspot observe).  \p Compile, when given, memoizes the lowering
/// shared by every invocation group (results are unchanged either way).
Measurement measureInApp(const Codelet &C, const Machine &M,
                         CompileCache *Compile = nullptr);

/// Profiles one codelet on the reference machine \p Ref (step B for a
/// single codelet; the parallel database fan-out calls this per work
/// item).
CodeletProfile profileCodelet(const Codelet &C, const Machine &Ref,
                              CompileCache *Compile = nullptr);

} // namespace fgbs

#endif // FGBS_ANALYSIS_PROFILER_H
