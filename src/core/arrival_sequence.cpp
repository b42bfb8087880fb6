//===- core/arrival_sequence.cpp ------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/arrival_sequence.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <string>

using namespace rprosa;

ArrivalRegulator::ArrivalRegulator(const ArrivalCurve &Curve)
    : Curve(Curve), Form(Curve.regulator()) {
  // earliest() asks minWindowAdmitting's question for windows up to
  // the search cap; the form answers it only if it holds that far.
  if (Form && Form->ValidTo < WindowSearchCap)
    Form.reset();
}

Time ArrivalRegulator::earliest(Time Proposed) const {
  if (Count == 0)
    return Proposed;
  Time Earliest = std::max(Proposed, Last);
  if (Form) {
    // The (Count + 1)-th arrival needs a window of
    // max(1, Count·Period + Slack + 1) ticks, found below the cap or
    // not at all; every earlier arrival J then bounds it by
    // U_J + Count·Period + Slack.
    WideTime Reach = WideTime(Count) * Form->Period + Form->Slack;
    if (Reach + 1 > WideTime(WindowSearchCap))
      return TimeInfinity;
    WideTime Bound = MaxU + Reach;
    if (Bound > WideTime(Earliest))
      Earliest = Bound >= WideTime(TimeInfinity) ? TimeInfinity
                                                 : Time(Bound);
    return Earliest;
  }
  // Constraint from each suffix of previous arrivals: the K arrivals
  // Times[J..] plus the new one fit in a window of length
  // (t - Times[J] + 1), which must admit K+1 arrivals.
  for (std::size_t J = 0; J < Times.size(); ++J) {
    std::uint64_t NeedCount = Times.size() - J + 1;
    Duration NeedLen = minWindowAdmitting(Curve, NeedCount);
    if (NeedLen == TimeInfinity)
      return TimeInfinity; // Curve admits no more arrivals, ever.
    // Need t - Times[J] + 1 >= NeedLen, i.e. t >= Times[J] + NeedLen - 1.
    Earliest = std::max(Earliest, satAdd(Times[J], NeedLen - 1));
  }
  return Earliest;
}

void ArrivalRegulator::append(Time At) {
  assert((Count == 0 || At >= Last) && "arrivals must be ascending");
  assert(Count < (std::uint64_t(1) << 62) && "regulator count overflow");
  if (Form) {
    WideTime U = WideTime(At) - WideTime(Count) * Form->Period;
    MaxU = Count == 0 ? U : std::max(MaxU, U);
  } else {
    Times.push_back(At);
  }
  Last = At;
  ++Count;
}

namespace {

/// Whether \p Curve's regulator form decides Eq. 2 over \p Times and
/// admits them all: ascending, spanning at most its ValidTo, and every
/// U_K at least max_{J<K} U_J + Slack.
bool regulatorAdmits(const std::vector<Time> &Times,
                     const ArrivalCurve &Curve) {
  std::optional<CurveRegulator> Form = Curve.regulator();
  if (!Form || Times.empty() || Times.back() < Times.front() ||
      Times.back() - Times.front() > Form->ValidTo)
    return false;
  WideTime MaxU = Times.front();
  for (std::size_t K = 1; K < Times.size(); ++K) {
    if (Times[K] < Times[K - 1])
      return false;
    WideTime U = WideTime(Times[K]) - WideTime(K) * Form->Period;
    if (U < MaxU + Form->Slack)
      return false;
    MaxU = std::max(MaxU, U);
  }
  return true;
}

} // namespace

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
  assert(Items.size() <= UINT32_MAX && "findMsg's index is 32-bit");
  ByMsg.resize(Items.size());
  for (std::uint32_t I = 0; I < ByMsg.size(); ++I)
    ByMsg[I] = I;
  std::sort(ByMsg.begin(), ByMsg.end(),
            [this](std::uint32_t A, std::uint32_t B) {
              MsgId IdA = Items[A].Msg.Id, IdB = Items[B].Msg.Id;
              return IdA != IdB ? IdA < IdB : A < B;
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

std::optional<std::size_t> ArrivalSequence::positionOfMsg(MsgId Id) const {
  ensureSorted();
  auto It = std::lower_bound(ByMsg.begin(), ByMsg.end(), Id,
                             [this](std::uint32_t Pos, MsgId Key) {
                               return Items[Pos].Msg.Id < Key;
                             });
  if (It == ByMsg.end() || Items[*It].Msg.Id != Id)
    return std::nullopt;
  return *It;
}

std::optional<Arrival> ArrivalSequence::findMsg(MsgId Id) const {
  std::optional<std::size_t> Pos = positionOfMsg(Id);
  if (!Pos)
    return std::nullopt;
  return Items[*Pos];
}

std::vector<std::pair<std::size_t, std::size_t>>
ArrivalSequence::duplicateMsgIds() const {
  ensureSorted();
  std::vector<std::pair<std::size_t, std::size_t>> Dups;
  // ByMsg orders equal ids by position, so each run's head is the
  // first arrival in arrivals() order.
  for (std::size_t K = 1, Head = 0; K < ByMsg.size(); ++K) {
    if (Items[ByMsg[K]].Msg.Id != Items[ByMsg[Head]].Msg.Id)
      Head = K;
    else
      Dups.emplace_back(ByMsg[Head], ByMsg[K]);
  }
  std::sort(Dups.begin(), Dups.end(),
            [](const auto &A, const auto &B) { return A.second < B.second; });
  return Dups;
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
  if (regulatorAdmits(Times, Curve)) {
    R.noteCheck(Times.size() * (Times.size() + 1) / 2);
    return std::nullopt;
  }
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
  R.noteCheck(size());
  for (const auto &D : duplicateMsgIds())
    R.addFailure("duplicate message id " +
                 std::to_string(Items[D.second].Msg.Id));
  return R;
}
