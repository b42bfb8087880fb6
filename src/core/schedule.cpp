//===- core/schedule.cpp --------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/schedule.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace rprosa;

void Schedule::append(ProcState State, Duration Len) {
  if (Len == 0)
    return;
  if (!Segments.empty() && Segments.back().State == State) {
    Segments.back().Len += Len;
    return;
  }
  ScheduleSegment Seg;
  Seg.Start = endTime();
  Seg.Len = Len;
  Seg.State = State;
  Segments.push_back(Seg);
}

ProcState Schedule::stateAt(Time T) const {
  // Binary search for the segment containing T.
  if (T < StartTime || Segments.empty() || T >= endTime())
    return ProcState::idle();
  auto It = std::upper_bound(
      Segments.begin(), Segments.end(), T,
      [](Time V, const ScheduleSegment &S) { return V < S.Start; });
  assert(It != Segments.begin() && "segment lookup underflow");
  --It;
  assert(T >= It->Start && T < It->end() && "segment lookup failed");
  return It->State;
}

/// Computes the overlap of [From, To) with segments satisfying Pred.
template <typename PredT>
static Duration accumulateOverlap(const std::vector<ScheduleSegment> &Segs,
                                  Time From, Time To, PredT Pred) {
  Duration Sum = 0;
  for (const ScheduleSegment &S : Segs) {
    if (S.end() <= From)
      continue;
    if (S.Start >= To)
      break;
    if (!Pred(S.State))
      continue;
    Time Lo = std::max(S.Start, From);
    Time Hi = std::min(S.end(), To);
    Sum += Hi - Lo;
  }
  return Sum;
}

Duration Schedule::blackoutIn(Time From, Time To) const {
  return accumulateOverlap(Segments, From, To,
                           [](const ProcState &S) { return S.isOverhead(); });
}

Duration Schedule::supplyIn(Time From, Time To) const {
  // Instants outside the covered range count as Idle, i.e. as supply.
  Time CoverFrom = std::max(From, StartTime);
  Time CoverTo = std::min(To, endTime());
  Duration Uncovered = (To - From) - (CoverTo > CoverFrom
                                          ? CoverTo - CoverFrom
                                          : 0);
  return Uncovered + accumulateOverlap(Segments, From, To,
                                       [](const ProcState &S) {
                                         return S.providesSupply();
                                       });
}

Duration Schedule::serviceIn(JobId J, Time From, Time To) const {
  return accumulateOverlap(Segments, From, To, [&](const ProcState &S) {
    return S.isExecuting() && S.Job == J;
  });
}

std::optional<Time> Schedule::completionTime(JobId J) const {
  std::optional<Time> Last;
  for (const ScheduleSegment &S : Segments)
    if (S.State.isExecuting() && S.State.Job == J)
      Last = S.end();
  return Last;
}

std::optional<Time> Schedule::startOfExecution(JobId J) const {
  for (const ScheduleSegment &S : Segments)
    if (S.State.isExecuting() && S.State.Job == J)
      return S.Start;
  return std::nullopt;
}

std::vector<JobId> Schedule::executedJobs() const {
  std::vector<JobId> Out;
  for (const ScheduleSegment &S : Segments) {
    if (!S.State.isExecuting())
      continue;
    if (std::find(Out.begin(), Out.end(), S.State.Job) == Out.end())
      Out.push_back(S.State.Job);
  }
  return Out;
}

std::vector<Time> Schedule::busyWindowAnchors() const {
  std::vector<Time> Anchors = {StartTime};
  for (std::size_t I = 1; I < Segments.size(); ++I)
    if (Segments[I - 1].State.isIdle() && !Segments[I].State.isIdle())
      Anchors.push_back(Segments[I].Start);
  return Anchors;
}

std::vector<std::pair<Time, Time>> Schedule::busyPeriods() const {
  std::vector<std::pair<Time, Time>> Out;
  for (const ScheduleSegment &S : Segments) {
    if (S.State.isIdle())
      continue;
    if (!Out.empty() && Out.back().second == S.Start)
      Out.back().second = S.end();
    else
      Out.emplace_back(S.Start, S.end());
  }
  return Out;
}

CheckResult Schedule::validateStructure() const {
  CheckResult R;
  Time Cursor = StartTime;
  for (std::size_t I = 0; I < Segments.size(); ++I) {
    const ScheduleSegment &S = Segments[I];
    R.noteCheck(3);
    if (S.Start != Cursor)
      R.addFailure("schedule gap before segment " + std::to_string(I));
    if (S.Len == 0)
      R.addFailure("zero-length segment " + std::to_string(I));
    if (I > 0 && Segments[I - 1].State == S.State)
      R.addFailure("uncoalesced equal segments at " + std::to_string(I));
    Cursor = S.end();
  }
  return R;
}
