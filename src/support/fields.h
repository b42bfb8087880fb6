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
/// All of it is inline: the trace reader splits every byte of a
/// multi-MB file with FieldCursor::next, so the separator test is a
/// direct byte comparison in the caller's loop, not a library call per
/// byte.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SUPPORT_FIELDS_H
#define RPROSA_SUPPORT_FIELDS_H

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace rprosa {

/// Parses \p Text as a number of the grammar; nullopt if it is not one.
inline std::optional<std::uint64_t> parseU64(std::string_view Text) {
  // For an unsigned type from_chars takes no sign, prefix or blank and
  // rejects overflow; making it consume the whole field leaves digits.
  std::uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Text.empty() || Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return V;
}

/// Moves the first line of \p Text (without its '\n') into \p Line and
/// drops it from \p Text; false once \p Text is empty.
inline bool nextLine(std::string_view &Text, std::string_view &Line) {
  if (Text.empty())
    return false;
  std::size_t Nl = Text.find('\n');
  Line = Text.substr(0, Nl);
  Text.remove_prefix(Nl == std::string_view::npos ? Text.size() : Nl + 1);
  return true;
}

/// Hands out the fields of one line, left to right.
class FieldCursor {
public:
  explicit FieldCursor(std::string_view Line)
      : Pos(Line.data()), End(Line.data() + Line.size()) {}

  /// The next field; empty once the line has none left, so
  /// `next().empty()` is the end-of-line check.
  std::string_view next() {
    while (Pos != End && isSeparator(*Pos))
      ++Pos;
    const char *Begin = Pos;
    while (Pos != End && !isSeparator(*Pos))
      ++Pos;
    return {Begin, static_cast<std::size_t>(Pos - Begin)};
  }

  /// The next field as a number; nullopt if it is missing or not one.
  std::optional<std::uint64_t> nextU64() { return parseU64(next()); }

  /// The same, but also nullopt above 2^32 - 1 (no wrapping).
  std::optional<std::uint32_t> nextU32() {
    std::optional<std::uint64_t> V = nextU64();
    if (!V || *V > std::numeric_limits<std::uint32_t>::max())
      return std::nullopt;
    return static_cast<std::uint32_t>(*V);
  }

private:
  static bool isSeparator(char C) {
    return C == ' ' || C == '\t' || C == '\r';
  }

  const char *Pos;
  const char *End;
};

} // namespace rprosa

#endif // RPROSA_SUPPORT_FIELDS_H
