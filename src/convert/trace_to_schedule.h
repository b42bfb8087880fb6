//===- convert/trace_to_schedule.h - Timed trace → schedule (§2.4) --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts a timed trace of marker functions into a schedule of
/// processor states, implementing the finite look-ahead parser of §2.4.
/// The processor states abstract over failed/successful reads and over
/// sockets; "the main challenge is accounting for the time spent on
/// failed reads", which is resolved by attributing every overhead to a
/// job:
///
///  - polling rounds with at least one successful read: each read chunk
///    (failed reads up to and including the next successful read, plus
///    any trailing failures after the round's last success) becomes
///    ReadOvh j of the chunk's successfully read job j;
///  - the final all-failed round of a polling phase becomes
///    PollingOvh j of the job dispatched right after it — or Idle when
///    the selection comes up empty;
///  - the failed selection and the idle cycle following it are Idle;
///  - Selection/Disp/Exec/Compl map 1-to-1 to SelectionOvh j /
///    DispatchOvh j / Executes j / CompletionOvh j.
///
/// This attribution keeps each discrete PollingOvh instance within
/// PB = |socks|·WcetFR (Def. 2.2) and each job's ReadOvh within
/// |socks|·WcetFR + WcetSR.
///
/// The conversion itself lives in ScheduleBuilder (schedule_builder.h);
/// convertTraceToSchedule replays a materialized trace into it and
/// captures the events with ScheduleCapture.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CONVERT_TRACE_TO_SCHEDULE_H
#define RPROSA_CONVERT_TRACE_TO_SCHEDULE_H

#include "core/schedule.h"
#include "core/job.h"
#include "support/check.h"
#include "trace/trace.h"

#include <optional>
#include <vector>

namespace rprosa {

/// Per-job bookkeeping extracted during conversion (the schedule itself
/// only carries job ids; checkers need task types and event times).
struct ConvertedJob {
  Job J;
  /// Timestamp of the successful M_ReadE (end of the read syscall).
  Time ReadAt = 0;
  /// Timestamp of M_Selection for the selection that picked this job.
  std::optional<Time> SelectedAt;
  /// Timestamp of M_Dispatch.
  std::optional<Time> DispatchedAt;
  /// Timestamp of M_Completion — the job's completion time (§2.3: "the
  /// completion time of a job corresponds to the end of the Exec basic
  /// action").
  std::optional<Time> CompletedAt;
};

/// The conversion output: the schedule plus the job table.
struct ConversionResult {
  Schedule Sched;
  std::vector<ConvertedJob> Jobs;

  /// Lookup by job id (nullptr if unknown).
  const ConvertedJob *findJob(JobId Id) const;
};

/// Runs the conversion. \p NumSockets fixes the round length of the
/// polling phase. Preconditions, checked with RPROSA_CHECK (a violation
/// aborts): one timestamp per marker, timestamps non-decreasing
/// ("markers must be delivered in timestamp order"), and EndTime not
/// before the last marker. Protocol violations are not preconditions:
/// unattributable spans map to Idle and each one records a diagnostic
/// in \p Diags when non-null. A job id that reappears after that job's
/// M_Completion opens a new table entry.
ConversionResult convertTraceToSchedule(const TimedTrace &TT,
                                        std::uint32_t NumSockets,
                                        CheckResult *Diags = nullptr);

} // namespace rprosa

#endif // RPROSA_CONVERT_TRACE_TO_SCHEDULE_H
