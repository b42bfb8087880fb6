//===- rta/compliance.cpp -------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/compliance.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace rprosa;

const Release *ReleaseSequence::findMsg(MsgId Id) const {
  for (const Release &R : Releases)
    if (R.Msg == Id)
      return &R;
  return nullptr;
}

ReleaseSequence rprosa::buildReleaseSequence(const ConversionResult &CR,
                                             const ArrivalSequence &Arr,
                                             bool ZeroJitter) {
  ReleaseSequence Out;
  std::vector<MeasuredJitter> MJ = measureReleaseJitter(CR, Arr);
  const std::vector<Arrival> &Arrivals = Arr.arrivals();
  assert(MJ.size() == Arrivals.size() &&
         "one jitter measurement per arrival");
  for (std::size_t I = 0; I < Arrivals.size(); ++I) {
    Release R;
    R.Msg = Arrivals[I].Msg.Id;
    R.Task = Arrivals[I].Msg.Task;
    R.ArrivalAt = Arrivals[I].At;
    R.Jitter = ZeroJitter ? 0 : MJ[I].Jitter;
    R.ReleaseAt = satAdd(R.ArrivalAt, R.Jitter);
    Out.Releases.push_back(R);
  }
  return Out;
}

namespace {

/// Per-message execution span (start of execution, completion) looked
/// up from the converted run; nullopt when the job never executed.
struct ExecSpan {
  Time Start = 0;
  Time End = 0;
};

std::optional<ExecSpan> execSpanOf(const ConversionResult &CR, MsgId Msg) {
  for (const ConvertedJob &CJ : CR.Jobs) {
    if (CJ.J.Msg != Msg)
      continue;
    std::optional<Time> Start = CR.Sched.startOfExecution(CJ.J.Id);
    std::optional<Time> End = CR.Sched.completionTime(CJ.J.Id);
    if (Start && End)
      return ExecSpan{*Start, *End};
    return std::nullopt;
  }
  return std::nullopt;
}

} // namespace

CheckResult rprosa::checkWorkConservation(const ConversionResult &CR,
                                          const ReleaseSequence &Rel) {
  CheckResult R;
  const Schedule &S = CR.Sched;
  for (const ScheduleSegment &Seg : S.segments()) {
    if (!Seg.State.isIdle())
      continue;
    for (const Release &Job : Rel.Releases) {
      R.noteCheck();
      // The job is "incomplete" from its release to its completion (or
      // forever within this run if it never completes).
      std::optional<ExecSpan> Span = execSpanOf(CR, Job.Msg);
      Time Incomplete = Span ? Span->End : S.endTime();
      Time OverlapLo = std::max(Seg.Start, Job.ReleaseAt);
      Time OverlapHi = std::min(Seg.end(), Incomplete);
      if (OverlapLo < OverlapHi)
        R.addFailure("work conservation violated: processor idle during "
                     "[" + std::to_string(OverlapLo) + ", " +
                     std::to_string(OverlapHi) + ") although message m" +
                     std::to_string(Job.Msg) + " was released at t=" +
                     std::to_string(Job.ReleaseAt) +
                     " and not yet complete");
    }
  }
  return R;
}

CheckResult rprosa::checkPolicyCompliance(const ConversionResult &CR,
                                          const ReleaseSequence &Rel,
                                          const TaskSet &Tasks) {
  CheckResult R;
  for (const Release &Job : Rel.Releases) {
    std::optional<ExecSpan> Span = execSpanOf(CR, Job.Msg);
    if (!Span || Job.Task >= Tasks.size())
      continue;
    Priority P = Tasks.task(Job.Task).Prio;
    Time Start = Span->Start;
    for (const Release &Other : Rel.Releases) {
      if (Other.Msg == Job.Msg || Other.Task >= Tasks.size())
        continue;
      R.noteCheck();
      if (Other.ReleaseAt >= Start)
        continue; // Released at or after the start: cannot precede.
      std::optional<ExecSpan> OtherSpan = execSpanOf(CR, Other.Msg);
      bool StartedBefore = OtherSpan && OtherSpan->Start <= Start;
      if (!StartedBefore && Tasks.task(Other.Task).Prio > P)
        R.addFailure("priority-policy compliance violated: m" +
                     std::to_string(Job.Msg) + " (prio " +
                     std::to_string(P) + ") starts at t=" +
                     std::to_string(Start) + " although m" +
                     std::to_string(Other.Msg) + " (prio " +
                     std::to_string(Tasks.task(Other.Task).Prio) +
                     ") was released at t=" +
                     std::to_string(Other.ReleaseAt) +
                     " and had not executed");
    }
  }
  return R;
}

CheckResult rprosa::checkReleaseCurve(const ReleaseSequence &Rel,
                                      const TaskSet &Tasks,
                                      Duration MaxJitter) {
  CheckResult R;
  // Group release times per task.
  std::vector<std::vector<Time>> PerTask(Tasks.size());
  for (const Release &Rl : Rel.Releases) {
    if (Rl.Task >= Tasks.size()) {
      R.addFailure("release of unknown task");
      continue;
    }
    PerTask[Rl.Task].push_back(Rl.ReleaseAt);
  }
  for (TaskId T = 0; T < PerTask.size(); ++T) {
    std::vector<Time> &Times = PerTask[T];
    std::sort(Times.begin(), Times.end());
    ArrivalCurvePtr Beta = makeReleaseCurve(Tasks.task(T).Curve,
                                            MaxJitter);
    if (std::optional<CurveExcess> E = firstCurveExcess(Times, *Beta, R))
      R.addFailure("release curve violated for task " + Tasks.task(T).Name +
                   ": " + std::to_string(E->Count) +
                   " releases in a window of length " +
                   std::to_string(E->WindowLen));
  }
  return R;
}

CheckResult rprosa::checkReleaseCurve(const ReleaseSequence &Rel,
                                      const TaskSet &Tasks,
                                      const TimingInputs &In,
                                      std::uint32_t NumSockets) {
  Duration J =
      maxReleaseJitter(OverheadBounds::compute(In.Wcets, NumSockets));
  return checkReleaseCurve(Rel, Tasks, J);
}
