//===- trace/check_sinks.cpp ----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/check_sinks.h"

#include <optional>
#include <string>

using namespace rprosa;

//===----------------------------------------------------------------------===//
// TimestampCheckSink
//===----------------------------------------------------------------------===//

void TimestampCheckSink::onMarker(const MarkerEvent &E, Time At) {
  (void)E;
  if (Done) {
    ++Index;
    return;
  }
  if (Index >= 1) {
    R.noteCheck();
    if (At < Last) {
      R.addFailure("timestamps decrease at marker " + std::to_string(Index));
      Done = true; // The batch checker returns at the first decrease.
    }
  }
  Last = At;
  ++Index;
}

void TimestampCheckSink::onEnd(Time EndTime) {
  if (Done)
    return;
  R.noteCheck();
  if (Index > 0 && EndTime < Last)
    R.addFailure("EndTime precedes the last marker");
}

//===----------------------------------------------------------------------===//
// ProtocolCheckSink
//===----------------------------------------------------------------------===//

void ProtocolCheckSink::onMarker(const MarkerEvent &E, Time At) {
  (void)At;
  if (Done) {
    ++Index;
    return;
  }
  R.noteCheck();
  if (!Sts.step(E, nullptr)) {
    // A rejected step leaves the STS as it was, so stepping again only
    // writes the reason: the message is built for a rejection alone.
    std::string Why;
    Sts.step(E, &Why);
    R.addFailure("protocol violation at marker " + std::to_string(Index) +
                 ": " + Why);
    Done = true; // The batch checker stops at the first rejection.
  }
  ++Index;
}

//===----------------------------------------------------------------------===//
// FunctionalCheckSink
//===----------------------------------------------------------------------===//

namespace {

const char *keyName(SchedPolicy Policy) {
  switch (Policy) {
  case SchedPolicy::Npfp:
    return "highest-priority";
  case SchedPolicy::Edf:
    return "earliest-deadline";
  case SchedPolicy::Fifo:
    return "first-read";
  }
  return "?";
}

} // namespace

void FunctionalCheckSink::onMarker(const MarkerEvent &E, Time At) {
  (void)At;
  const std::size_t I = Index++;
  switch (E.Kind) {
  case MarkerKind::ReadE: {
    if (!E.J)
      break;
    R.noteCheck();
    // Property 3: unique identifiers.
    if (!SeenJobIds.insert(E.J->Id))
      R.addFailure("marker " + std::to_string(I) + ": job id j" +
                   std::to_string(E.J->Id) + " read twice (Def. 3.2 "
                   "uniqueness violated)");
    std::optional<std::uint64_t> K =
        policyKey(Policy, Tasks.findTask(E.J->Task), E.J->ReadAt, E.J->Id);
    if (!K) {
      R.addFailure("marker " + std::to_string(I) + ": read job of "
                   "unknown task or missing policy key");
      break;
    }
    auto [H, New] = Pending.insert(KeyedJob{*K, E.J->Id});
    if (New)
      Pending.order(H, *K);
    break;
  }
  case MarkerKind::Dispatch: {
    R.noteCheck(2);
    if (!E.J) {
      R.addFailure("marker " + std::to_string(I) + ": dispatch with no "
                   "job");
      break;
    }
    std::optional<std::uint64_t> K =
        policyKey(Policy, Tasks.findTask(E.J->Task), E.J->ReadAt, E.J->Id);
    if (!K) {
      R.addFailure("marker " + std::to_string(I) + ": dispatched job "
                   "of unknown task or missing policy key");
      break;
    }
    // Property 1a: the job must be pending.
    auto H = Pending.find(KeyedJob{*K, E.J->Id});
    if (H == Pending.None) {
      R.addFailure("marker " + std::to_string(I) + ": dispatched j" +
                   std::to_string(E.J->Id) + " is not pending");
      break;
    }
    // Property 1b: no other pending job precedes it in policy order.
    if (Pending.minOrder() < *K)
      R.addFailure("marker " + std::to_string(I) + ": dispatched j" +
                   std::to_string(E.J->Id) +
                   " although another pending job comes first under "
                   "the " + toString(Policy) + " policy (Def. 3.2 " +
                   keyName(Policy) + " violated)");
    // Retire the job's pending state (O(open jobs) discipline).
    Pending.erase(H);
    break;
  }
  case MarkerKind::Idling: {
    R.noteCheck();
    // Property 2: idling only with no pending jobs.
    if (!Pending.empty())
      R.addFailure("marker " + std::to_string(I) + ": M_Idling while "
                   "jobs are pending (Def. 3.2 idling violated)");
    break;
  }
  default:
    break;
  }
}

//===----------------------------------------------------------------------===//
// ConsistencyCheckSink
//===----------------------------------------------------------------------===//

ConsistencyCheckSink::ConsistencyCheckSink(const ArrivalSequence &Arr)
    : Arr(Arr), All(Arr.arrivals()), PerSock(Arr.numSockets()),
      Verified(Arr.numSockets(), 0) {
  std::vector<std::size_t> Count(PerSock.size(), 0);
  for (const Arrival &A : All)
    if (A.Socket < PerSock.size())
      ++Count[A.Socket];
  for (std::size_t S = 0; S < PerSock.size(); ++S)
    PerSock[S].reserve(Count[S]);
  for (std::size_t P = 0; P < All.size(); ++P)
    if (All[P].Socket < PerSock.size())
      PerSock[All[P].Socket].push_back(static_cast<std::uint32_t>(P));
}

void ConsistencyCheckSink::onMarker(const MarkerEvent &E, Time At) {
  const std::size_t I = Index++;
  if (E.Kind != MarkerKind::ReadE)
    return;
  if (E.Socket >= PerSock.size()) {
    R.addFailure("marker " + std::to_string(I) + ": read of socket s" +
                 std::to_string(E.Socket) + " outside the arrival "
                 "sequence's socket range");
    return;
  }

  if (E.isSuccessfulRead()) {
    R.noteCheck(3);
    const Job &J = *E.J;
    std::optional<std::size_t> Pos = Arr.positionOfMsg(J.Msg);
    // Condition 1: the job must originate from the arrival sequence...
    if (!Pos) {
      R.addFailure("marker " + std::to_string(I) + ": read message m" +
                   std::to_string(J.Msg) + " never arrives in arr");
      return;
    }
    const Arrival &A = All[*Pos];
    // ...on the same socket, with the task type the classifier infers...
    if (A.Socket != E.Socket)
      R.addFailure("marker " + std::to_string(I) + ": message m" +
                   std::to_string(J.Msg) + " read from s" +
                   std::to_string(E.Socket) + " but arrived on s" +
                   std::to_string(A.Socket));
    if (A.Msg.Task != J.Task)
      R.addFailure("marker " + std::to_string(I) + ": task type of read "
                   "job does not match the arrived message");
    // ...and strictly after its arrival: t_a < ts[i].
    if (A.At >= At)
      R.addFailure("marker " + std::to_string(I) + ": job j" +
                   std::to_string(J.Id) + " read at t=" +
                   std::to_string(At) + " but arrives only at t=" +
                   std::to_string(A.At) + " (Def. 2.1 cond. 1)");
    if (!ReadMsgs.insert(J.Msg))
      R.addFailure("marker " + std::to_string(I) + ": message m" +
                   std::to_string(J.Msg) + " read twice");
    return;
  }

  // Failed read: every arrival on this socket strictly before ts[i]
  // must already have been read (Def. 2.1 cond. 2).
  const std::vector<std::uint32_t> &Socks = PerSock[E.Socket];
  std::size_t &V = Verified[E.Socket];
  while (V < Socks.size() && All[Socks[V]].At < At) {
    const Arrival &A = All[Socks[V]];
    R.noteCheck();
    if (!ReadMsgs.contains(A.Msg.Id))
      R.addFailure("marker " + std::to_string(I) + ": failed read on s" +
                   std::to_string(E.Socket) + " at t=" +
                   std::to_string(At) + " although message m" +
                   std::to_string(A.Msg.Id) + " arrived at t=" +
                   std::to_string(A.At) + " and was not read "
                   "(Def. 2.1 cond. 2)");
    ++V;
  }
}

//===----------------------------------------------------------------------===//
// DeadlineCheckSink
//===----------------------------------------------------------------------===//

DeadlineCheckSink::DeadlineCheckSink(const TaskSet &Tasks,
                                     const ArrivalSequence &Arr)
    : Tasks(Tasks), Arr(Arr) {}

void DeadlineCheckSink::onMarker(const MarkerEvent &E, Time At) {
  if (E.isSuccessfulRead()) {
    std::optional<Arrival> A = Arr.findMsg(E.J->Msg);
    // Unknown messages are the consistency checker's business; a
    // deadline verdict needs the arrival instant, so skip them here.
    // A job read twice keeps its first message.
    if (A) {
      auto [H, New] = Open.insert(E.J->Id);
      if (New)
        Open[H] = OpenJob{E.J->Msg, A->At};
    }
    return;
  }
  if (E.Kind != MarkerKind::Completion || !E.J)
    return;
  auto H = Open.find(E.J->Id);
  if (H == Open.None)
    return;
  auto [Msg, Arrived] = Open[H];
  Open.erase(H);
  if (E.J->Task >= Tasks.size())
    return;
  const Task &T = Tasks.task(E.J->Task);
  if (T.Deadline == 0)
    return; // Unconstrained task.
  R.noteCheck();
  Duration Response = At >= Arrived ? At - Arrived : 0;
  if (Response > T.Deadline) {
    Misses.push_back(DeadlineMiss{E.J->Id, Msg, E.J->Task, Arrived, At,
                                  Response, T.Deadline});
    R.addFailure("job j" + std::to_string(E.J->Id) + " of task " + T.Name +
                 " (message m" + std::to_string(Msg) + ") arrived at t=" +
                 std::to_string(Arrived) + " and completed at t=" +
                 std::to_string(At) + ": response " +
                 std::to_string(Response) + " exceeds the deadline " +
                 std::to_string(T.Deadline));
  }
}

//===----------------------------------------------------------------------===//
// WcetCheckSink
//===----------------------------------------------------------------------===//

void WcetCheckSink::onAction(const BasicAction &A, Time ReadEAt) {
  (void)ReadEAt;
  R.noteCheck();
  // The fixed kinds' names are literals; a callback's name (What stays
  // null) is built only for a failure message.
  Duration Bound = 0;
  const char *What = nullptr;
  switch (A.Kind) {
  case BasicActionKind::Read:
    Bound = A.J ? W.SuccessfulRead : W.FailedRead;
    What = A.J ? "successful read" : "failed read";
    break;
  case BasicActionKind::Selection:
    Bound = W.Selection;
    What = "selection";
    break;
  case BasicActionKind::Disp:
    Bound = W.Dispatch;
    What = "dispatch";
    break;
  case BasicActionKind::Exec:
    if (!A.J || A.J->Task >= Tasks.size()) {
      R.addFailure("execution action without a valid task at marker " +
                   std::to_string(A.FirstMarker));
      return;
    }
    Bound = Tasks.task(A.J->Task).Wcet;
    break;
  case BasicActionKind::Compl:
    Bound = W.Completion;
    What = "completion";
    break;
  case BasicActionKind::Idling:
    Bound = W.Idling;
    What = "idle cycle";
    break;
  }
  if (A.len() > Bound)
    R.addFailure((What ? std::string(What)
                       : "callback of task " + Tasks.task(A.J->Task).Name) +
                 " at marker " + std::to_string(A.FirstMarker) + " took " +
                 std::to_string(A.len()) + " ticks, exceeding its WCET of " +
                 std::to_string(Bound));
}
