//===- sim/arrival_log.h - Recorded arrival logs --------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis quantifies over all curve-compliant arrival sequences,
/// but a deployment also wants to replay *recorded* traffic (e.g. a
/// captured ROS bag or a packet trace) through the verified pipeline.
/// This module reads and writes a line-oriented arrival log:
///
///   refinedprosa-arrivals v1
///   # time socket task [payload]
///   0ns    0 0 16
///   1200us 1 2
///   ...
///
/// Fields, numbers and time literals follow the grammar of DESIGN.md
/// §9 (space, tab and CR separate fields; time literals take the
/// ns/us/ms/s units). Socket and task are numbers below the socket and
/// task counts, and the payload (default 16 bytes) is at most
/// 2^32 - 1. A '#' starts a comment; nothing else may follow the
/// payload. Whether a replayed log respects the declared
/// curves is checked by the usual ArrivalSequence::respectsCurves — a
/// log that does not is exactly the situation where the response-time
/// guarantee does not apply.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SIM_ARRIVAL_LOG_H
#define RPROSA_SIM_ARRIVAL_LOG_H

#include "core/arrival_sequence.h"
#include "support/check.h"

#include <optional>
#include <string>

namespace rprosa {

/// Parses the v1 arrival-log format; nullopt on malformed input with
/// the reason in \p Diags. \p NumSockets bounds the socket column and
/// \p NumTasks the task column.
std::optional<ArrivalSequence> parseArrivalLog(const std::string &Text,
                                               std::uint32_t NumSockets,
                                               std::size_t NumTasks,
                                               CheckResult *Diags = nullptr);

/// Renders \p Arr in the v1 format (times in plain ticks).
std::string serializeArrivalLog(const ArrivalSequence &Arr);

} // namespace rprosa

#endif // RPROSA_SIM_ARRIVAL_LOG_H
