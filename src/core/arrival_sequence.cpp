//===- core/arrival_sequence.cpp ------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/arrival_sequence.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <string>

using namespace rprosa;

Time rprosa::earliestCompliantArrival(const ArrivalCurve &Curve,
                                      const std::vector<Time> &Prev,
                                      Time Proposed) {
  Time Earliest = Proposed;
  // Constraint from each suffix of previous arrivals: the K arrivals
  // Prev[J..] plus the new one fit in a window of length
  // (t - Prev[J] + 1), which must admit K+1 arrivals.
  for (std::size_t J = 0; J < Prev.size(); ++J) {
    std::uint64_t Count = Prev.size() - J + 1;
    Duration NeedLen = minWindowAdmitting(Curve, Count);
    if (NeedLen == TimeInfinity)
      return TimeInfinity; // Curve admits no more arrivals, ever.
    // Need t - Prev[J] + 1 >= NeedLen, i.e. t >= Prev[J] + NeedLen - 1.
    Time Bound = satAdd(Prev[J], NeedLen - 1);
    if (Bound > Earliest)
      Earliest = Bound;
  }
  return Earliest;
}

void ArrivalSequence::addArrival(Time At, SocketId Socket, Message Msg) {
  assert(Socket < NumSockets && "socket out of range");
  Items.push_back(Arrival{At, Socket, Msg});
  Sorted = false;
  if (Msg.Id >= NextMsgId)
    NextMsgId = Msg.Id + 1;
}

MsgId ArrivalSequence::addArrival(Time At, SocketId Socket, TaskId Task,
                                  std::uint32_t PayloadLen) {
  Message M;
  M.Id = NextMsgId++;
  M.Task = Task;
  M.PayloadLen = PayloadLen;
  addArrival(At, Socket, M);
  return M.Id;
}

void ArrivalSequence::ensureSorted() const {
  if (Sorted)
    return;
  std::stable_sort(Items.begin(), Items.end(),
                   [](const Arrival &A, const Arrival &B) {
                     if (A.At != B.At)
                       return A.At < B.At;
                     if (A.Socket != B.Socket)
                       return A.Socket < B.Socket;
                     return A.Msg.Id < B.Msg.Id;
                   });
  Sorted = true;
}

const std::vector<Arrival> &ArrivalSequence::arrivals() const {
  ensureSorted();
  return Items;
}

std::vector<Arrival> ArrivalSequence::arrivalsOn(SocketId Socket) const {
  ensureSorted();
  std::vector<Arrival> Out;
  for (const Arrival &A : Items)
    if (A.Socket == Socket)
      Out.push_back(A);
  return Out;
}

std::optional<Arrival> ArrivalSequence::findMsg(MsgId Id) const {
  for (const Arrival &A : Items)
    if (A.Msg.Id == Id)
      return A;
  return std::nullopt;
}

std::uint64_t ArrivalSequence::countInWindow(TaskId Task, Time From,
                                             Time To) const {
  ensureSorted();
  std::uint64_t N = 0;
  for (const Arrival &A : Items) {
    if (A.At >= To)
      break;
    if (A.At >= From && A.Msg.Task == Task)
      ++N;
  }
  return N;
}

Time ArrivalSequence::lastArrivalTime() const {
  ensureSorted();
  return Items.empty() ? 0 : Items.back().At;
}

CheckResult ArrivalSequence::respectsCurves(const TaskSet &Tasks) const {
  ensureSorted();
  CheckResult R;
  // Group arrival times per task.
  std::map<TaskId, std::vector<Time>> PerTask;
  for (const Arrival &A : Items) {
    if (A.Msg.Task >= Tasks.size()) {
      R.addFailure("arrival of unknown task id " +
                   std::to_string(A.Msg.Task));
      continue;
    }
    PerTask[A.Msg.Task].push_back(A.At);
  }
  // One diagnostic per task keeps the output readable.
  for (auto &[TaskIdV, Times] : PerTask)
    if (std::optional<CurveExcess> E =
            firstCurveExcess(Times, *Tasks.task(TaskIdV).Curve, R))
      R.addFailure("task " + Tasks.task(TaskIdV).Name + ": " +
                   std::to_string(E->Count) + " arrivals in a window of "
                   "length " + std::to_string(E->WindowLen) +
                   " exceed the curve bound " + std::to_string(E->Bound));
  return R;
}

std::optional<CurveExcess>
rprosa::firstCurveExcess(const std::vector<Time> &Times,
                         const ArrivalCurve &Curve, CheckResult &R) {
  for (std::size_t J = 0; J < Times.size(); ++J) {
    for (std::size_t K = J; K < Times.size(); ++K) {
      R.noteCheck();
      CurveExcess E{K - J + 1, Times[K] - Times[J] + 1, 0};
      E.Bound = Curve.eval(E.WindowLen);
      if (E.Count > E.Bound)
        return E;
    }
  }
  return std::nullopt;
}

CheckResult ArrivalSequence::uniqueMsgIds() const {
  CheckResult R;
  std::set<MsgId> Seen;
  for (const Arrival &A : Items) {
    R.noteCheck();
    if (!Seen.insert(A.Msg.Id).second)
      R.addFailure("duplicate message id " + std::to_string(A.Msg.Id));
  }
  return R;
}
