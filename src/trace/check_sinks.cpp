//===- trace/check_sinks.cpp ----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/check_sinks.h"

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
  std::string Why;
  if (!Sts.step(E, &Why)) {
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

std::size_t FunctionalCheckSink::pendingJobs() const {
  std::size_t N = 0;
  for (const auto &[K, Ids] : Pending)
    N += Ids.size();
  return N;
}

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
    Pending[*K].insert(E.J->Id);
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
    auto It = Pending.find(*K);
    bool IsPending = It != Pending.end() && It->second.count(E.J->Id);
    if (!IsPending) {
      R.addFailure("marker " + std::to_string(I) + ": dispatched j" +
                   std::to_string(E.J->Id) + " is not pending");
      break;
    }
    // Property 1b: no other pending job precedes it in policy order.
    auto First = Pending.begin();
    if (First->first < *K)
      R.addFailure("marker " + std::to_string(I) + ": dispatched j" +
                   std::to_string(E.J->Id) +
                   " although another pending job comes first under "
                   "the " + toString(Policy) + " policy (Def. 3.2 " +
                   keyName(Policy) + " violated)");
    // Retire the job's pending state (O(open jobs) discipline).
    It->second.erase(E.J->Id);
    if (It->second.empty())
      Pending.erase(It);
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
    : PerSock(Arr.numSockets()), Verified(Arr.numSockets(), 0) {
  for (const Arrival &A : Arr.arrivals()) {
    ByMsg.emplace(A.Msg.Id, A);
    if (A.Socket < PerSock.size())
      PerSock[A.Socket].push_back(A); // arrivals() is time-sorted.
  }
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
    auto It = ByMsg.find(J.Msg);
    // Condition 1: the job must originate from the arrival sequence...
    if (It == ByMsg.end()) {
      R.addFailure("marker " + std::to_string(I) + ": read message m" +
                   std::to_string(J.Msg) + " never arrives in arr");
      return;
    }
    const Arrival &A = It->second;
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
  auto &Socks = PerSock[E.Socket];
  std::size_t &V = Verified[E.Socket];
  while (V < Socks.size() && Socks[V].At < At) {
    R.noteCheck();
    if (!ReadMsgs.contains(Socks[V].Msg.Id))
      R.addFailure("marker " + std::to_string(I) + ": failed read on s" +
                   std::to_string(E.Socket) + " at t=" +
                   std::to_string(At) + " although message m" +
                   std::to_string(Socks[V].Msg.Id) + " arrived at t=" +
                   std::to_string(Socks[V].At) + " and was not read "
                   "(Def. 2.1 cond. 2)");
    ++V;
  }
}

//===----------------------------------------------------------------------===//
// DeadlineCheckSink
//===----------------------------------------------------------------------===//

DeadlineCheckSink::DeadlineCheckSink(const TaskSet &Tasks,
                                     const ArrivalSequence &Arr)
    : Tasks(Tasks) {
  for (const Arrival &A : Arr.arrivals())
    ArrivalAt.emplace(A.Msg.Id, A.At);
}

void DeadlineCheckSink::onMarker(const MarkerEvent &E, Time At) {
  if (E.isSuccessfulRead()) {
    auto It = ArrivalAt.find(E.J->Msg);
    // Unknown messages are the consistency checker's business; a
    // deadline verdict needs the arrival instant, so skip them here.
    if (It != ArrivalAt.end())
      Open.emplace(E.J->Id, std::make_pair(E.J->Msg, It->second));
    return;
  }
  if (E.Kind != MarkerKind::Completion || !E.J)
    return;
  auto It = Open.find(E.J->Id);
  if (It == Open.end())
    return;
  auto [Msg, Arrived] = It->second;
  Open.erase(It);
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

void WcetCheckSink::onAction(const BasicAction &A) {
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
