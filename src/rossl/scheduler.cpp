//===- rossl/scheduler.cpp ------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rossl/scheduler.h"

#include <cassert>

using namespace rprosa;

FdScheduler::FdScheduler(const ClientConfig &Client, Environment &Env,
                         CostModel &Costs)
    : Client(Client), Env(Env), Costs(Costs),
      Pending(makeJobQueue(Client.Policy)) {
  assert(Env.numSockets() == Client.NumSockets &&
         "environment sockets must match the client's registration");
}

bool FdScheduler::readOnce(SocketId Sock) {
  // M_ReadS marks the issue of the read system call.
  Rec->record(MarkerEvent::readS());

  // The syscall polls the queue; the poll completes after the
  // failed-read duration. If a message arrived strictly before that
  // instant, the read succeeds and additionally spends the copy time;
  // otherwise it returns empty-handed. This makes Def. 2.1 hold by
  // construction: a failed read's return instant is exactly the
  // availability threshold it checked.
  Duration PollLen = Costs.failedRead();
  Time PollDone = satAdd(Clock.now(), PollLen);
  std::optional<Message> Msg = Env.read(Sock, PollDone);
  if (!Msg) {
    Clock.advance(PollLen);
    Rec->record(MarkerEvent::readE(Sock, std::nullopt));
    return false;
  }

  Clock.advance(PollLen);
  Clock.advance(Costs.readCompletionExtra(PollLen));
  // READ-STEP-SUCCESS (Fig. 6): assign a fresh unique id to the job.
  Job J;
  J.Id = NextJobId++;
  J.Msg = Msg->Id;
  J.Task = Msg->Task;
  J.Socket = Sock;
  J.ReadAt = Clock.now();
  Rec->record(MarkerEvent::readE(Sock, J));
  RPROSA_CHECK(J.Task < Client.Tasks.size(),
               "classifier produced unknown task");
  Pending->enqueue(J, Client.Tasks.task(J.Task));
  return true;
}

void FdScheduler::checkSocketsUntilEmpty() {
  // Rounds over all sockets; the phase ends with the first round in
  // which every read fails.
  bool AnySuccess = true;
  while (AnySuccess) {
    AnySuccess = false;
    for (SocketId S = 0; S < Client.NumSockets; ++S)
      AnySuccess |= readOnce(S);
  }
}

TimedTrace FdScheduler::run(const RunLimits &Limits) {
  MarkerRecorder Recorder(Clock);
  runLoop(Limits, Recorder);
  return Recorder.take();
}

Time FdScheduler::run(const RunLimits &Limits, TraceSink &Sink) {
  MarkerRecorder Recorder(Clock, Sink);
  runLoop(Limits, Recorder);
  return Recorder.finish();
}

void FdScheduler::runLoop(const RunLimits &Limits,
                          MarkerRecorder &Recorder) {
  Rec = &Recorder;
  while (Clock.now() < Limits.Horizon &&
         (Limits.MaxMarkers == 0 || Recorder.size() < Limits.MaxMarkers)) {
    // --- Polling phase (Fig. 2 line 3). ---
    checkSocketsUntilEmpty();

    // --- Selection phase (lines 4-6). ---
    Rec->record(MarkerEvent::selection());
    Clock.advance(Costs.selection());
    std::optional<Job> J = Pending->dequeue();

    if (!J) {
      // --- Idling phase (line 8): one idle cycle, then poll again. ---
      Rec->record(MarkerEvent::idling());
      Clock.advance(Costs.idling());
      continue;
    }

    // --- Execution phase (lines 10-12). ---
    Rec->record(MarkerEvent::dispatch(*J));
    Clock.advance(Costs.dispatch());

    Rec->record(MarkerEvent::execution(*J));
    const Task &T = Client.Tasks.task(J->Task);
    if (!Client.Callbacks.empty() && Client.Callbacks[J->Task])
      Client.Callbacks[J->Task](*J);
    Clock.advance(Costs.exec(T));

    // M_Completion marks the end of the callback (the job's completion
    // time) and the start of the cleanup (free) segment.
    Rec->record(MarkerEvent::completion(*J));
    Clock.advance(Costs.completion());
  }
  Rec = nullptr;
}
