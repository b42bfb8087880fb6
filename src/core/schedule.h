//===- core/schedule.h - Schedules of processor states (§4.1) -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A schedule maps each time instant to a processor state (§2.4, §4.1:
/// sched : N → ProcessorState). Prosa works with possibly-infinite
/// schedules; a concrete run yields a *finite* schedule over
/// [startTime, endTime), which we represent run-length encoded. Queries
/// (service, blackout, completion) all operate on half-open windows.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_SCHEDULE_H
#define RPROSA_CORE_SCHEDULE_H

#include "core/processor_state.h"
#include "core/time.h"
#include "support/check.h"

#include <optional>
#include <utility>
#include <vector>

namespace rprosa {

/// A maximal run of instants in the same processor state.
struct ScheduleSegment {
  Time Start = 0;
  Duration Len = 0;
  ProcState State;

  Time end() const { return Start + Len; }
};

/// A finite, contiguous, run-length encoded schedule.
class Schedule {
public:
  explicit Schedule(Time StartTime = 0) : StartTime(StartTime) {}

  /// Appends \p Len instants of \p State at the current end. Zero-length
  /// appends are ignored; adjacent equal states are coalesced.
  void append(ProcState State, Duration Len);

  Time startTime() const { return StartTime; }
  Time endTime() const {
    return Segments.empty() ? StartTime : Segments.back().end();
  }
  Duration length() const { return endTime() - StartTime; }
  bool empty() const { return Segments.empty(); }

  const std::vector<ScheduleSegment> &segments() const { return Segments; }

  /// The state at instant \p T; Idle outside the covered range (the
  /// finite-to-infinite extension convention used when interfacing with
  /// the Prosa-style analysis, cf. §6 "manually scheduling the
  /// completion of pending jobs": callers must ensure all relevant jobs
  /// completed within range before extending with Idle).
  ProcState stateAt(Time T) const;

  /// Number of instants in [From, To) spent in overhead states
  /// ("blackout" in aRSA terms, §4.2).
  Duration blackoutIn(Time From, Time To) const;

  /// Number of instants in [From, To) that provide supply (idle or
  /// executing).
  Duration supplyIn(Time From, Time To) const;

  /// Number of instants in [From, To) executing job \p J.
  Duration serviceIn(JobId J, Time From, Time To) const;

  /// The instant right after the last Executes(J) instant, i.e. the
  /// job's completion time; nullopt if J never executes in range.
  std::optional<Time> completionTime(JobId J) const;

  /// The first instant at which J executes; nullopt if never.
  std::optional<Time> startOfExecution(JobId J) const;

  /// All jobs that appear in an Executes segment, in order of first
  /// execution.
  std::vector<JobId> executedJobs() const;

  /// Busy-window anchors: the schedule start plus every Idle→non-Idle
  /// transition instant. The SBF of §4.4 lower-bounds supply only in
  /// windows anchored at such quiet points, so both the empirical
  /// soundness checks (E4) and the analysis reason from these anchors.
  std::vector<Time> busyWindowAnchors() const;

  /// Maximal non-Idle intervals [first, second) — the observed busy
  /// periods. Every one must fit inside the analysis's busy-window
  /// bound for the lowest-priority task (which accounts for the whole
  /// workload), a property the test suite asserts.
  std::vector<std::pair<Time, Time>> busyPeriods() const;

  /// Structural invariants: contiguity, positive lengths, coalesced
  /// neighbours.
  CheckResult validateStructure() const;

private:
  Time StartTime;
  std::vector<ScheduleSegment> Segments;
};

} // namespace rprosa

#endif // RPROSA_CORE_SCHEDULE_H
