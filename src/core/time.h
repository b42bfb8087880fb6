//===- core/time.h - The discrete time model ------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time in RefinedProsa is discrete and arbitrarily fine-grained (§2.3,
/// footnote 3: "the unit of timestamps is arbitrary and can be
/// instantiated with any arbitrarily fine-grained units such as processor
/// cycles"). We fix the convention 1 tick = 1 nanosecond for the helpers
/// below; all analysis code is unit-agnostic.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_TIME_H
#define RPROSA_CORE_TIME_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace rprosa {

/// An instant on the (discrete, non-negative) time line.
using Time = std::uint64_t;

/// A length of a time interval, in the same unit as Time.
using Duration = std::uint64_t;

/// A horizon value meaning "no bound found below the search cap".
inline constexpr Duration TimeInfinity = ~0ull;

// Convenience constants under the 1 tick = 1 ns convention.
inline constexpr Duration TickNs = 1;
inline constexpr Duration TickUs = 1000 * TickNs;
inline constexpr Duration TickMs = 1000 * TickUs;
inline constexpr Duration TickSec = 1000 * TickMs;

/// Saturating addition on times: anything involving TimeInfinity stays
/// at TimeInfinity, and overflow clamps instead of wrapping.
inline Time satAdd(Time A, Time B) {
  if (A == TimeInfinity || B == TimeInfinity)
    return TimeInfinity;
  Time Sum = A + B;
  return Sum < A ? TimeInfinity : Sum;
}

/// Parses a time literal: a number of the text grammar (DESIGN.md §9)
/// followed by no unit or one of ns, us, ms, s ("400", "2us", "10ms";
/// a bare number is ticks = ns). nullopt on malformed input and when
/// the scaled value would reach TimeInfinity: a literal never
/// saturates. Shared by the system-spec and arrival-log formats and
/// the CLIs.
std::optional<Duration> parseTimeLiteral(std::string_view Text);

/// Saturating multiplication on durations with the same conventions.
inline Duration satMul(Duration A, Duration B) {
  if (A == 0 || B == 0)
    return 0;
  if (A == TimeInfinity || B == TimeInfinity)
    return TimeInfinity;
  if (A > TimeInfinity / B)
    return TimeInfinity;
  return A * B;
}

} // namespace rprosa

#endif // RPROSA_CORE_TIME_H
