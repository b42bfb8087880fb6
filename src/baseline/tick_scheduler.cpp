//===- baseline/tick_scheduler.cpp ----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "baseline/tick_scheduler.h"

#include "core/pending_queue.h"

#include <cassert>
#include <map>

using namespace rprosa;

namespace {

/// A pending job with its remaining service demand.
struct PendingTickJob {
  MsgId Msg = 0;
  TaskId Task = InvalidTaskId;
  Time ArrivalAt = 0;
  Duration Remaining = 0;
  JobId Id = InvalidJobId;
};

} // namespace

TickRunResult rprosa::runTickScheduler(const TaskSet &Tasks,
                                       const ArrivalSequence &Arr,
                                       Time Horizon, const TickConfig &Cfg) {
  assert(Cfg.Quantum > Cfg.OverheadPerQuantum &&
         "quantum must leave room for useful work");
  TickRunResult Res;
  Res.Sched = Schedule(0);

  const std::vector<Arrival> &Arrivals = Arr.arrivals();
  std::size_t NextArrival = 0;
  // Pending jobs, highest priority first, FIFO within a level.
  PendingQueue<PendingTickJob> Ready;
  JobId NextId = 1;

  std::map<MsgId, TickJobResult> Outcomes;
  for (const Arrival &A : Arrivals)
    Outcomes.emplace(A.Msg.Id,
                     TickJobResult{A.Msg.Id, A.Msg.Task, A.At, false, 0});

  for (Time TickStart = 0; TickStart < Horizon;
       TickStart += Cfg.Quantum) {
    // The tick handler observes all arrivals up to (and including) the
    // tick instant.
    while (NextArrival < Arrivals.size() &&
           Arrivals[NextArrival].At <= TickStart) {
      const Arrival &A = Arrivals[NextArrival];
      if (A.Msg.Task < Tasks.size()) {
        PendingTickJob P;
        P.Msg = A.Msg.Id;
        P.Task = A.Msg.Task;
        P.ArrivalAt = A.At;
        P.Remaining = Tasks.task(A.Msg.Task).Wcet;
        P.Id = NextId++;
        Ready.push(priorityKey(Tasks.task(A.Msg.Task).Prio), P);
      }
      ++NextArrival;
    }

    // Fixed per-quantum scheduling overhead (attributed to no job).
    Res.Sched.append(
        ProcState::overhead(ProcStateKind::SelectionOvh, InvalidJobId),
        Cfg.OverheadPerQuantum);

    Duration Budget = Cfg.Quantum - Cfg.OverheadPerQuantum;
    Time Cursor = TickStart + Cfg.OverheadPerQuantum;
    // Run the highest-priority work for the rest of the quantum;
    // several jobs may finish within one quantum.
    while (Budget > 0) {
      if (Ready.empty()) {
        Res.Sched.append(ProcState::idle(), Budget);
        break;
      }
      PendingTickJob &P = Ready.front();
      Duration Slice = std::min<Duration>(Budget, P.Remaining);
      Res.Sched.append(ProcState::executes(P.Id), Slice);
      Cursor += Slice;
      Budget -= Slice;
      P.Remaining -= Slice;
      if (P.Remaining == 0) {
        TickJobResult &O = Outcomes[P.Msg];
        O.Completed = true;
        O.CompletedAt = Cursor;
        Ready.pop();
      }
    }
  }

  for (const Arrival &A : Arrivals)
    Res.Jobs.push_back(Outcomes[A.Msg.Id]);
  return Res;
}
