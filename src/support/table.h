//===- support/table.h - Aligned ASCII tables and CSV output --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TableWriter renders the rows the benchmark harnesses report, in the
/// same spirit as the tables/figures of the paper's evaluation: a header,
/// aligned columns, and optional CSV output for plotting.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SUPPORT_TABLE_H
#define RPROSA_SUPPORT_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace rprosa {

/// Accumulates rows of string cells and renders them with aligned
/// columns (for terminals) or as CSV (for plotting scripts).
class TableWriter {
public:
  explicit TableWriter(std::vector<std::string> Header);

  /// Appends one row; the cell count must match the header.
  void addRow(std::vector<std::string> Cells);

  /// Renders an aligned ASCII table with a separator under the header.
  std::string renderAscii() const;

  /// Renders RFC-4180-ish CSV (cells containing comma/quote/newline are
  /// quoted).
  std::string renderCsv() const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

/// Formats N with thousands separators ("12,345"), matching how the
/// paper reports LoC and tick counts.
std::string formatWithCommas(std::uint64_t N);

/// Formats a tick count as a human-readable duration assuming 1 tick =
/// 1 ns ("12.35ms"). Used only for presentation; all math is in ticks.
std::string formatTicksAsNs(std::uint64_t Ticks);

/// Formats the ratio Num/Den with two decimal places; "inf" if Den == 0.
std::string formatRatio(std::uint64_t Num, std::uint64_t Den);

} // namespace rprosa

#endif // RPROSA_SUPPORT_TABLE_H
