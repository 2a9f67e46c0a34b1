//===- fgbs/analysis/Features.h - The 76-feature catalog --------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The performance-feature catalog: 40 MAQAO-like static metrics computed
/// from the compiled binary loop, and 36 Likwid-like dynamic metrics
/// derived from hardware counters on the reference architecture — 76
/// features total, matching the paper ("MAQAO and Likwid gather 76
/// different features", section 3.2).
///
/// Feature subsets are represented as bit masks over this catalog; the
/// genetic algorithm of section 4.2 searches that space.  The named
/// features of paper Table 2 are all present (see kTable2FeatureNames).
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_ANALYSIS_FEATURES_H
#define FGBS_ANALYSIS_FEATURES_H

#include "fgbs/arch/Machine.h"
#include "fgbs/dsl/Codelet.h"
#include "fgbs/sim/Executor.h"

#include <span>
#include <string>
#include <vector>

namespace fgbs {

/// Whether a feature comes from static binary analysis or from hardware
/// counters.
enum class FeatureKind { Static, Dynamic };

/// Catalog entry.
struct FeatureInfo {
  std::string Name;
  FeatureKind Kind;
};

/// The global feature catalog (fixed order, 76 entries).
class FeatureCatalog {
public:
  /// The singleton catalog.
  static const FeatureCatalog &get();

  std::size_t size() const { return Infos.size(); }
  const FeatureInfo &info(std::size_t Index) const { return Infos[Index]; }

  /// Index of the feature named \p Name, or -1 if absent.
  int indexOf(const std::string &Name) const;

  /// Indices of all static / all dynamic features.
  std::vector<std::size_t> staticIndices() const;
  std::vector<std::size_t> dynamicIndices() const;

private:
  FeatureCatalog();
  std::vector<FeatureInfo> Infos;
};

/// Total number of features.
inline constexpr std::size_t NumFeatures = 76;

/// The feature names the paper's GA selected (Table 2), expressed in this
/// catalog's naming.  Used by tests and by bench/table2.
extern const std::vector<std::string> kTable2FeatureNames;

/// Computes the full 76-entry feature vector for codelet \p C profiled on
/// the reference machine \p Ref with in-application measurement \p M.
/// The static features re-analyze the compiled loop; \p Compile, when
/// given, reuses the memoized lowering (results are unchanged).
std::vector<double> computeFeatures(const Codelet &C, const Machine &Ref,
                                    const Measurement &M,
                                    CompileCache *Compile = nullptr);

/// A selection of features, as a bitmask over the catalog.
using FeatureMask = std::vector<bool>;

/// Mask with every feature selected.
FeatureMask allFeaturesMask();

/// Mask selecting exactly the named features (names must exist).
FeatureMask maskForNames(const std::vector<std::string> &Names);

/// Catalog indices of the features \p Mask selects, ascending.
std::vector<std::size_t> maskColumns(const FeatureMask &Mask);

/// Projects \p Full (size 76) onto the selected coordinates of \p Mask.
std::vector<double> applyMask(const std::vector<double> &Full,
                              const FeatureMask &Mask);

/// Projects \p Full onto \p Columns, a mask's maskColumns(); the form to
/// use when one mask projects many vectors.
std::vector<double> applyMask(const std::vector<double> &Full,
                              std::span<const std::size_t> Columns);

/// Number of selected features in \p Mask.
std::size_t maskCount(const FeatureMask &Mask);

} // namespace fgbs

#endif // FGBS_ANALYSIS_FEATURES_H
