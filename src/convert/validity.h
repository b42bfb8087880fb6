//===- convert/validity.h - Validity constraints on schedules (§2.4) ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validity constraints of §2.4 on converted schedules:
///  (a) bounds on each discrete instance of a processor state (e.g.
///      Def. 2.2: every PollingOvh instance within PB = |socks|·WcetFR);
///  (b) consistency with the arrival sequence (every scheduled job
///      originates from an arrival, after its arrival time);
///  (c) functional correctness at schedule level (the selected job
///      precedes every other read-but-undispatched job in the policy
///      order — highest priority for the paper's NPFP policy);
///  (d) a schedule-level version of the scheduler protocol (per-job
///      state ordering; exactly one contiguous execution per job —
///      non-preemptive execution);
///  (e) unique job identifiers.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CONVERT_VALIDITY_H
#define RPROSA_CONVERT_VALIDITY_H

#include "convert/trace_to_schedule.h"

#include "core/arrival_sequence.h"
#include "core/policy.h"
#include "core/task.h"
#include "core/wcet.h"
#include "support/check.h"

namespace rprosa {

/// Checks all five §2.4 validity constraints; the returned result
/// aggregates every violation found. The checks live in
/// StreamingValidity (validity_stream.h); this entry point replays
/// \p CR into it: the schedule start and every segment, then every job
/// admitted in table order with its final snapshot, every selected job
/// selected, completed jobs retired, and the rest passed to
/// onScheduleEnd. Since every job is admitted before any selection,
/// (c) compares each selection against the whole table.
CheckResult checkValidity(const ConversionResult &CR, const TaskSet &Tasks,
                          const ArrivalSequence &Arr,
                          const BasicActionWcets &W,
                          std::uint32_t NumSockets,
                          SchedPolicy Policy = SchedPolicy::Npfp);

} // namespace rprosa

#endif // RPROSA_CONVERT_VALIDITY_H
