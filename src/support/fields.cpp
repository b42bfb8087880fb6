//===- support/fields.cpp -------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/fields.h"

#include <charconv>
#include <limits>

using namespace rprosa;

namespace {

constexpr std::string_view Separators = " \t\r";

} // namespace

std::optional<std::uint64_t> rprosa::parseU64(std::string_view Text) {
  // For an unsigned type from_chars takes no sign, prefix or blank and
  // rejects overflow; making it consume the whole field leaves digits.
  std::uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Text.empty() || Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return V;
}

bool rprosa::nextLine(std::string_view &Text, std::string_view &Line) {
  if (Text.empty())
    return false;
  std::size_t Nl = Text.find('\n');
  Line = Text.substr(0, Nl);
  Text.remove_prefix(Nl == std::string_view::npos ? Text.size() : Nl + 1);
  return true;
}

std::string_view FieldCursor::next() {
  std::size_t B = Rest.find_first_not_of(Separators);
  if (B == std::string_view::npos) {
    Rest = {};
    return {};
  }
  std::size_t E = Rest.find_first_of(Separators, B);
  std::string_view Field = Rest.substr(B, E - B);
  Rest.remove_prefix(E == std::string_view::npos ? Rest.size() : E);
  return Field;
}

std::optional<std::uint32_t> FieldCursor::nextU32() {
  std::optional<std::uint64_t> V = nextU64();
  if (!V || *V > std::numeric_limits<std::uint32_t>::max())
    return std::nullopt;
  return static_cast<std::uint32_t>(*V);
}
