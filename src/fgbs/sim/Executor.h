//===- fgbs/sim/Executor.h - Codelet execution model -----------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor: "runs" a codelet on a machine model and produces a timed
/// measurement with Likwid-style hardware counters.
///
/// The executor compiles the codelet for the machine (honoring the
/// compilation context), samples its memory streams through the
/// trace-driven cache hierarchy, combines the compute and memory bounds
/// according to the core's issue discipline, and applies a deterministic
/// measurement-noise model (stronger for short codelets, as the paper
/// observes) plus instrumentation overhead.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SIM_EXECUTOR_H
#define FGBS_SIM_EXECUTOR_H

#include "fgbs/arch/Machine.h"
#include "fgbs/compiler/CompileCache.h"
#include "fgbs/compiler/Compiler.h"
#include "fgbs/dsl/Codelet.h"
#include "fgbs/sim/Cache.h"
#include "fgbs/sim/Pipeline.h"

#include <cstdint>
#include <span>

namespace fgbs {

/// Likwid-style raw performance events for one codelet invocation.
struct PerfCounters {
  double Cycles = 0.0;
  double Uops = 0.0;
  double FpOpsSP = 0.0;
  double FpOpsDP = 0.0;
  double L1Accesses = 0.0;
  /// Lines transferred into L1 from L2 (i.e. L1 misses).
  double L2LinesIn = 0.0;
  /// Lines transferred into L2 from L3 (0 on machines without an L3).
  double L3LinesIn = 0.0;
  /// Lines fetched from DRAM.
  double MemLinesIn = 0.0;
  double LoadBytes = 0.0;
  double StoreBytes = 0.0;
  double Seconds = 0.0;

  double totalFlops() const { return FpOpsSP + FpOpsDP; }
};

/// How one invocation of a codelet is being executed.
struct ExecutionRequest {
  double DatasetScale = 1.0;
  CompilationContext Context = CompilationContext::InApplication;
  /// True when the run replays a CF memory dump (standalone
  /// microbenchmark): codelets flagged CacheStateSensitive then see a
  /// warmer memory hierarchy than they did inside the application.
  bool WarmCacheReplay = false;
  /// Optimizer settings (defaults model -O3).
  CompilerOptions Options;
  /// Optional compile memoization shared across executions (database
  /// construction passes one); null compiles afresh per call.  Does not
  /// affect results: the lowering is deterministic.
  CompileCache *Compile = nullptr;
};

/// The result of executing one invocation.
struct Measurement {
  /// Noise-free model time per invocation, seconds.
  double TrueSeconds = 0.0;
  /// Measured time per invocation (noise + probe overhead), seconds.
  double MeasuredSeconds = 0.0;
  /// Raw events for one invocation (noise-free).
  PerfCounters Counters;
  /// Compute-bound breakdown (for static-analysis consumers and tests).
  ComputeBreakdown Compute;
  /// Memory cycles per innermost iteration (for tests).
  double MemCyclesPerIter = 0.0;
};

/// Per-stream steady-state cache behaviour, sampled by the trace
/// simulator.  Exposed for unit testing.
struct StreamBehavior {
  /// Fraction of this stream's accesses served by each level; index
  /// numLevels() is DRAM.
  std::vector<double> ServedFraction;
  /// Accesses per innermost iteration.
  double AccessesPerIter = 0.0;
  /// True for hardware-prefetch-friendly strides (small constant).
  bool Prefetchable = true;
  bool IsStore = false;
  unsigned ElemBytes = 8;
};

/// Samples the steady-state behaviour of \p Streams on \p M's hierarchy,
/// assuming \p TotalIterations innermost iterations per invocation.
std::vector<StreamBehavior>
sampleMemoryBehavior(const std::vector<MemoryStreamDesc> &Streams,
                     const Machine &M, std::uint64_t TotalIterations);

/// Samples \p Streams on every machine of \p Machines in one walk of the
/// trace: element I is bit-identical to sampleMemoryBehavior(\p Streams,
/// *\p Machines[I], \p TotalIterations).  Machines share the simulated
/// levels whose geometries agree from L1 down, and each counts only its
/// own measure window.  Iterations that touch exactly the lines of the
/// iteration before are skipped where that is exact (see walk() in
/// Executor.cpp); each walk adds its iterations to the
/// sim.walk.iterations counter and the skipped ones to
/// sim.walk.skipped_iterations.  Throws std::length_error when the
/// trace's layout reaches line CacheLevel::LineLimit at the smallest
/// line size (256 GiB at 64-byte lines) or a level cannot be allocated.
std::vector<std::vector<StreamBehavior>>
sampleMemoryBehavior(const std::vector<MemoryStreamDesc> &Streams,
                     std::span<const Machine *const> Machines,
                     std::uint64_t TotalIterations);

/// Memoizing wrapper around sampleMemoryBehavior (the executor's hot
/// path; identical stream/machine/iteration triples recur across
/// compilation contexts and pipeline runs).  Keyed by content: the
/// streams, the iteration count and each cache level's size,
/// associativity and line size, never the machine's name.  Thread-safe:
/// racing callers of one missing key may each sample it, and the first
/// insert wins (the sampling is deterministic).  Bounded: the
/// process-wide memo clears itself at a fixed entry count.  Each key
/// looked up counts one of sim.sample.{hits,misses}; cleared entries
/// count as sim.sample.evictions.
std::vector<StreamBehavior>
sampleMemoryBehaviorCached(const std::vector<MemoryStreamDesc> &Streams,
                           const Machine &M, std::uint64_t TotalIterations);

/// Fills the memo above for every machine of \p Machines: every key
/// missing from it is sampled in one walk (counted in the
/// sim.sample.walk timer).  Copies no behaviour out; a later
/// one-machine call hits.  A walk that throws memoizes none of the
/// call's keys and reaches only this caller.
void primeMemoryBehavior(const std::vector<MemoryStreamDesc> &Streams,
                         std::span<const Machine *const> Machines,
                         std::uint64_t TotalIterations);

/// What the sampler reads of one execution: the memory streams and the
/// innermost iteration count at one dataset scale.
struct MemoryTrace {
  std::vector<MemoryStreamDesc> Streams;
  std::uint64_t TotalIterations = 1;

  auto operator<=>(const MemoryTrace &) const = default;
};

/// The trace execute() samples for codelet \p C at dataset scale
/// \p Scale.
MemoryTrace memoryTrace(const Codelet &C, double Scale);

/// A deterministic estimate of the accesses one sampleMemoryBehavior
/// walk of \p Trace for \p Machines simulates, for ordering walks: the
/// latest end of their sampling windows times the touches per
/// iteration, less the iterations the walk can be expected to skip.
std::uint64_t simulatedAccesses(const MemoryTrace &Trace,
                                std::span<const Machine *const> Machines);

/// Executes codelet \p C on machine \p M per request \p R.
/// Deterministic: identical inputs produce identical measurements.
Measurement execute(const Codelet &C, const Machine &M,
                    const ExecutionRequest &R);

} // namespace fgbs

#endif // FGBS_SIM_EXECUTOR_H
