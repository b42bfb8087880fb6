//===- core/time.cpp ------------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/time.h"

#include "support/fields.h"

using namespace rprosa;

std::optional<Duration> rprosa::parseTimeLiteral(std::string_view Text) {
  std::size_t Digits = Text.find_first_not_of("0123456789");
  std::string_view Suffix =
      Digits == std::string_view::npos ? "" : Text.substr(Digits);
  Duration Scale = 0;
  if (Suffix.empty() || Suffix == "ns")
    Scale = TickNs;
  else if (Suffix == "us")
    Scale = TickUs;
  else if (Suffix == "ms")
    Scale = TickMs;
  else if (Suffix == "s")
    Scale = TickSec;
  else
    return std::nullopt;
  // The scaled value must stay below TimeInfinity: no saturation.
  std::optional<std::uint64_t> Num = parseU64(Text.substr(0, Digits));
  if (!Num || *Num > (TimeInfinity - 1) / Scale)
    return std::nullopt;
  return *Num * Scale;
}
