//===- fgbs/support/TextTable.h - Console table printer --------*- C++ -*-===//
//
// Part of the FGBS project: a reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small aligned-column table printer used by the bench binaries to emit
/// the paper's tables in a readable form, and a CSV writer for downstream
/// plotting.
///
//===----------------------------------------------------------------------===//

#ifndef FGBS_SUPPORT_TEXTTABLE_H
#define FGBS_SUPPORT_TEXTTABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace fgbs {

/// Accumulates rows of strings and prints them with aligned columns.
class TextTable {
public:
  /// Sets the header row.
  void setHeader(std::vector<std::string> Names);

  /// Appends a data row.  Rows may have differing widths; missing cells
  /// print as empty.
  void addRow(std::vector<std::string> Cells);

  /// Appends a horizontal separator line.
  void addSeparator();

  /// Prints the table to \p OS.
  void print(std::ostream &OS) const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Body;
  std::vector<bool> IsSeparator;
};

/// Formats \p Value with \p Digits digits after the decimal point.
std::string formatDouble(double Value, int Digits);

/// Formats \p Value as a percentage string, e.g. "3.9%".
std::string formatPercent(double Value, int Digits = 1);

/// Formats a speedup / factor, e.g. "x44.3".
std::string formatFactor(double Value, int Digits = 1);

} // namespace fgbs

#endif // FGBS_SUPPORT_TEXTTABLE_H
