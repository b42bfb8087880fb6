//===- support/fields.h - The one grammar of the text inputs --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every text input the library reads (v1/v2 traces, arrival logs,
/// system specs, time literals and the CLI counts) is taken apart with
/// the three pieces below, so one grammar holds everywhere (DESIGN.md
/// §9 states it):
///
///  - a text is a sequence of '\n'-terminated lines (the last one may
///    lack its '\n');
///  - a line is a sequence of fields separated by runs of space, tab
///    and CR (no other byte separates);
///  - a number is one or more ASCII digits whose value is at most
///    2^64 - 1: no sign, no base prefix, any number of leading zeros.
///
/// Fields are string_views into the caller's line; nothing allocates.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SUPPORT_FIELDS_H
#define RPROSA_SUPPORT_FIELDS_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace rprosa {

/// Parses \p Text as a number of the grammar; nullopt if it is not one.
std::optional<std::uint64_t> parseU64(std::string_view Text);

/// Moves the first line of \p Text (without its '\n') into \p Line and
/// drops it from \p Text; false once \p Text is empty.
bool nextLine(std::string_view &Text, std::string_view &Line);

/// Hands out the fields of one line, left to right.
class FieldCursor {
public:
  explicit FieldCursor(std::string_view Line) : Rest(Line) {}

  /// The next field; empty once the line has none left, so
  /// `next().empty()` is the end-of-line check.
  std::string_view next();

  /// The next field as a number; nullopt if it is missing or not one.
  std::optional<std::uint64_t> nextU64() { return parseU64(next()); }

  /// The same, but also nullopt above 2^32 - 1 (no wrapping).
  std::optional<std::uint32_t> nextU32();

private:
  std::string_view Rest;
};

} // namespace rprosa

#endif // RPROSA_SUPPORT_FIELDS_H
