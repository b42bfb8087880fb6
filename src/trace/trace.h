//===- trace/trace.h - Traces and timed traces (§2.2, §2.3) ---------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A trace is the sequence of marker events a run of the scheduler
/// emits. A *timed trace* (tr, ts) additionally maps every marker to the
/// instant at which its marker function was called (§2.3); EndTime
/// closes the last basic action (the simulated run ends at a marker
/// boundary, and EndTime is the clock value at that point — the horizon
/// up to which the scheduler is known to have run, Thm. 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_TRACE_H
#define RPROSA_TRACE_TRACE_H

#include "trace/marker.h"

#include "core/time.h"

#include <string>
#include <vector>

namespace rprosa {

using Trace = std::vector<MarkerEvent>;

/// A trace of marker functions with one timestamp per marker.
struct TimedTrace {
  Trace Tr;
  std::vector<Time> Ts;
  /// The instant at which the run stopped; it ends the last marker's
  /// basic action.
  Time EndTime = 0;

  std::size_t size() const { return Tr.size(); }
  bool empty() const { return Tr.empty(); }
};

/// Renders a timed trace as one marker per line with timestamps;
/// \p MaxLines truncates long traces (0 = no limit).
std::string renderTimedTrace(const TimedTrace &TT, std::size_t MaxLines = 0);

} // namespace rprosa

#endif // RPROSA_TRACE_TRACE_H
