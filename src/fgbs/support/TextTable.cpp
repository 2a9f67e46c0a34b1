//===- fgbs/support/TextTable.cpp - Console table printer ----------------===//

#include "fgbs/support/TextTable.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace fgbs;

void TextTable::setHeader(std::vector<std::string> Names) {
  Header = std::move(Names);
}

void TextTable::addRow(std::vector<std::string> Cells) {
  Body.push_back(std::move(Cells));
  IsSeparator.push_back(false);
}

void TextTable::addSeparator() {
  Body.emplace_back();
  IsSeparator.push_back(true);
}

void TextTable::print(std::ostream &OS) const {
  // Compute column widths over header and body.
  std::vector<std::size_t> Widths;
  auto Grow = [&Widths](const std::vector<std::string> &Row) {
    if (Row.size() > Widths.size())
      Widths.resize(Row.size(), 0);
    for (std::size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());
  };
  Grow(Header);
  for (const auto &Row : Body)
    Grow(Row);

  auto PrintRow = [&](const std::vector<std::string> &Row) {
    for (std::size_t I = 0; I < Widths.size(); ++I) {
      std::string Cell = I < Row.size() ? Row[I] : std::string();
      Cell.resize(Widths[I], ' ');
      OS << (I == 0 ? "" : "  ") << Cell;
    }
    OS << '\n';
  };

  auto PrintSeparator = [&] {
    std::size_t Total = 0;
    for (std::size_t W : Widths)
      Total += W;
    Total += Widths.empty() ? 0 : 2 * (Widths.size() - 1);
    OS << std::string(Total, '-') << '\n';
  };

  if (!Header.empty()) {
    PrintRow(Header);
    PrintSeparator();
  }
  for (std::size_t I = 0; I < Body.size(); ++I) {
    if (IsSeparator[I])
      PrintSeparator();
    else
      PrintRow(Body[I]);
  }
}

std::string fgbs::formatDouble(double Value, int Digits) {
  assert(Digits >= 0 && Digits <= 12 && "unreasonable digit count");
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Digits, Value);
  return Buffer;
}

std::string fgbs::formatPercent(double Value, int Digits) {
  return formatDouble(Value, Digits) + "%";
}

std::string fgbs::formatFactor(double Value, int Digits) {
  // Appending (rather than "x" + ...) keeps g++ 12's -O3 -Wrestrict
  // false positive on operator+(const char *, string &&) away.
  std::string Out = "x";
  Out += formatDouble(Value, Digits);
  return Out;
}
