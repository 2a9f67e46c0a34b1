//===- fgbs/dsl/Codelet.h - Codelets, applications, suites -----*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codelet object model: a codelet is an extractable outermost loop
/// with its arrays, loop nest, body statements, invocation schedule and
/// behaviour traits; applications group codelets; suites group
/// applications.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_DSL_CODELET_H
#define FGBS_DSL_CODELET_H

#include "fgbs/dsl/Expr.h"

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace fgbs {

/// The loop nest enclosing the codelet body.
struct LoopNest {
  /// Innermost trip count per execution of the surrounding loops.
  std::uint64_t InnerTripCount = 1;
  /// Product of all outer-loop trip counts per invocation (1 for a simple
  /// single loop).
  std::uint64_t OuterIterations = 1;

  /// Total innermost iterations executed per invocation.
  std::uint64_t totalIterations() const {
    return InnerTripCount * OuterIterations;
  }
};

/// A group of invocations sharing a dataset context.  Codelets invoked
/// with varying contexts over the application lifetime (the paper's first
/// ill-behaved category) carry several groups with different scales; the
/// extractor only captures the FIRST group's dataset.
struct InvocationGroup {
  std::uint64_t Count = 1;   ///< Invocations in this group.
  double DatasetScale = 1.0; ///< Trip-count/footprint multiplier vs the
                             ///< codelet's declared nest and arrays.
};

/// Behaviour traits that drive the extraction-fidelity model
/// (paper section 3.4 and the Akel et al. ill-behaved taxonomy).
struct BehaviorTraits {
  /// The compiler optimizes this loop differently when the surrounding
  /// code is absent (second ill-behaved category): standalone compilation
  /// loses vectorization.
  bool CompilationContextSensitive = false;
  /// The standalone memory dump restores a warmer cache than the codelet
  /// sees in the application (the CG-on-Atom effect of Figure 5): the
  /// microbenchmark runs faster on machines with a small last-level cache.
  bool CacheStateSensitive = false;
};

/// A codelet: a short, side-effect-free source-code fragment that can be
/// outlined and extracted as a standalone microbenchmark.
struct Codelet {
  std::string Name;    ///< e.g. "toeplz_1" or "bt/rhs.f:266-311".
  std::string App;     ///< Owning application, e.g. "bt".
  std::string Pattern; ///< Human description (Table 3 column).

  std::vector<ArrayDecl> Arrays;
  LoopNest Nest;
  std::vector<Stmt> Body;
  std::vector<InvocationGroup> Invocations = {{1, 1.0}};
  BehaviorTraits Traits;

  /// Total invocations over the application lifetime.
  std::uint64_t totalInvocations() const;

  /// Average dataset scale over all invocations (what the in-app profile
  /// observes).
  double averageDatasetScale() const;

  /// Dataset scale of the first invocation (what the extractor captures).
  double capturedDatasetScale() const;

  /// Sum of all array footprints, in bytes, at scale 1.
  std::uint64_t footprintBytes() const;

  /// A terse stride summary like "0 & 1 & -1" (Table 3 column), derived
  /// from the body's distinct access stride classes.
  std::string strideSummary() const;

  Codelet clone() const;
};

/// An application: a set of codelets covering most of its runtime.
struct Application {
  std::string Name;
  std::vector<Codelet> Codelets;
  /// Fraction of the application's execution time covered by codelets
  /// (0.92 for the NAS suite per Akel et al.).
  double Coverage = 0.92;
};

/// A benchmark suite.
struct Suite {
  std::string Name;
  std::vector<Application> Applications;

  /// Total number of codelets.
  std::size_t numCodelets() const;

  /// Pointers to every codelet, application order preserved.
  std::vector<const Codelet *> allCodelets() const;
};

/// A memory stream the innermost loop generates: input to the cache
/// simulator.  Derived from the body's accesses by collectStreams().
struct MemoryStreamDesc {
  std::int64_t StrideBytes;     ///< Signed stride per innermost iteration.
  std::uint64_t FootprintBytes; ///< Extent walked before wrapping.
  unsigned PointsPerIter;       ///< Touches per iteration (stencils > 1).
  bool IsStore;
  unsigned ElemBytes;

  auto operator<=>(const MemoryStreamDesc &) const = default;
};

/// Derives the memory streams of \p C at dataset scale \p Scale.
std::vector<MemoryStreamDesc> collectStreams(const Codelet &C,
                                             double Scale = 1.0);

} // namespace fgbs

#endif // FGBS_DSL_CODELET_H
