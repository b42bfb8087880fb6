//===- rossl/faulty.cpp ---------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rossl/faulty.h"

#include <cassert>

using namespace rprosa;

std::string rprosa::toString(SchedulerBug B) {
  switch (B) {
  case SchedulerBug::EarlyPollingExit:
    return "early-polling-exit";
  case SchedulerBug::PriorityInversion:
    return "priority-inversion";
  case SchedulerBug::SkipCompletionMarker:
    return "skip-completion-marker";
  case SchedulerBug::DoubleDispatch:
    return "double-dispatch";
  case SchedulerBug::IgnoreLastSocket:
    return "ignore-last-socket";
  case SchedulerBug::OversleepIdling:
    return "oversleep-idling";
  }
  return "?";
}

FaultyScheduler::FaultyScheduler(const ClientConfig &Client,
                                 Environment &Env, CostModel &Costs,
                                 SchedulerBug Bug)
    : Client(Client), Env(Env), Costs(Costs), Bug(Bug), Recorder(Clock) {
  assert(Env.numSockets() == Client.NumSockets && "socket mismatch");
}

bool FaultyScheduler::readOnce(SocketId Sock) {
  Recorder.record(MarkerEvent::readS());
  Duration PollLen = Costs.failedRead();
  Time PollDone = satAdd(Clock.now(), PollLen);
  std::optional<Message> Msg = Env.read(Sock, PollDone);
  if (!Msg) {
    Clock.advance(PollLen);
    Recorder.record(MarkerEvent::readE(Sock, std::nullopt));
    return false;
  }
  Clock.advance(PollLen);
  Clock.advance(Costs.readCompletionExtra(PollLen));
  Job J;
  J.Id = NextJobId++;
  J.Msg = Msg->Id;
  J.Task = Msg->Task;
  J.Socket = Sock;
  J.ReadAt = Clock.now();
  Recorder.record(MarkerEvent::readE(Sock, J));
  // PriorityInversion keys by the priority itself, so the LOWEST level
  // leaves first.
  Priority P = Client.Tasks.task(J.Task).Prio;
  Pending.push(Bug == SchedulerBug::PriorityInversion ? P : priorityKey(P),
               J);
  return true;
}

bool FaultyScheduler::pollOnce() {
  bool Any = false;
  SocketId End = Client.NumSockets;
  if (Bug == SchedulerBug::IgnoreLastSocket && End > 1)
    --End; // Starves the last socket.
  for (SocketId S = 0; S < End; ++S)
    Any |= readOnce(S);
  return Any;
}

std::optional<Job> FaultyScheduler::dequeue() {
  if (Pending.empty())
    return std::nullopt;
  Job J = Pending.front();
  if (Bug == SchedulerBug::DoubleDispatch && !DoubleDispatchArmed) {
    // "Forget" to remove the job once: the next selection re-dispatches
    // it.
    DoubleDispatchArmed = true;
  } else {
    DoubleDispatchArmed = false;
    Pending.pop();
  }
  return J;
}

TimedTrace FaultyScheduler::run(const RunLimits &Limits) {
  while (Clock.now() < Limits.Horizon &&
         (Limits.MaxMarkers == 0 || Recorder.size() < Limits.MaxMarkers)) {
    if (Bug == SchedulerBug::EarlyPollingExit) {
      // One round only — pending messages may remain unread, and a
      // round with successes flows straight into selection.
      pollOnce();
    } else {
      while (pollOnce()) {
      }
    }

    Recorder.record(MarkerEvent::selection());
    Clock.advance(Costs.selection());
    std::optional<Job> J = dequeue();
    if (!J) {
      Recorder.record(MarkerEvent::idling());
      Clock.advance(Costs.idling());
      if (Bug == SchedulerBug::OversleepIdling)
        Clock.advance(3 * Client.Wcets.Idling); // 4x total.
      continue;
    }

    Recorder.record(MarkerEvent::dispatch(*J));
    Clock.advance(Costs.dispatch());
    Recorder.record(MarkerEvent::execution(*J));
    Clock.advance(Costs.exec(Client.Tasks.task(J->Task)));
    if (Bug != SchedulerBug::SkipCompletionMarker)
      Recorder.record(MarkerEvent::completion(*J));
    Clock.advance(Costs.completion());
  }
  return Recorder.take();
}
