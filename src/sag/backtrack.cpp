//===- sag/backtrack.cpp --------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sag/backtrack.h"

#include "core/arrival_curve.h"
#include "rossl/scheduler.h"
#include "sim/cost_model.h"
#include "sim/environment.h"

using namespace rprosa;

SagRealization rprosa::sagRealizeArrivals(const SagModel &M,
                                          std::uint32_t VictimJob,
                                          SagRealizeVariant Variant) {
  SagRealization Out;
  Out.Arrivals = ArrivalSequence(M.numSockets());
  const std::vector<SagJob> &Jobs = M.jobs();

  // Desired instants per job; the per-task compliant push below only
  // moves them later, so the sequence stays inside the analyzed class
  // whenever the windows themselves are curve-compliant (rmin is the
  // greedy-dense instant, so AllEarly is compliant by construction).
  auto desired = [&](const SagJob &J, std::uint32_t Idx) -> Time {
    switch (Variant) {
    case SagRealizeVariant::AllEarly:
      return J.Rmin;
    case SagRealizeVariant::AllLate:
      return J.Rmax;
    case SagRealizeVariant::VictimLate:
      return Idx == VictimJob ? J.Rmax : J.Rmin;
    }
    return J.Rmin;
  };

  // Jobs are stored task-major in index order, so one ascending walk
  // per task realizes its arrivals in order. Iterating tasks in id
  // order keeps message-id assignment deterministic.
  for (const Task &T : M.tasks().tasks()) {
    ArrivalRegulator Reg(*T.Curve);
    for (std::uint32_t Idx = 0; Idx < Jobs.size(); ++Idx) {
      const SagJob &J = Jobs[Idx];
      if (J.Task != T.Id)
        continue;
      Time At = Reg.earliest(desired(J, Idx));
      if (At == TimeInfinity)
        break; // Curve exhausted (cannot happen for window-derived jobs).
      Reg.append(At);
      MsgId Msg = Out.Arrivals.addArrival(At, J.Socket, T.Id);
      if (Idx == VictimJob)
        Out.VictimMsg = Msg;
    }
  }
  return Out;
}

Time rprosa::sagReplayHorizon(const SagModel &M) {
  // Start no earlier than the latest possible queue entry; then the
  // machine retires the backlog one dispatch iteration at a time.
  Time H = 1;
  for (const SagJob &J : M.jobs())
    if (J.Qmax > H)
      H = J.Qmax;
  Duration Phase = M.phaseMax(M.jobs().size());
  for (const SagJob &J : M.jobs())
    H = satAdd(H, satAdd(satAdd(Phase, M.selection()),
                         satAdd(satAdd(M.dispatch(), J.Cost),
                                M.completion())));
  // One trailing idle iteration so the final completion is observable.
  return satAdd(H, satAdd(satAdd(Phase, M.selection()), M.idling()));
}

SagReplayOutcome rprosa::sagReplay(const SagModel &M,
                                   const ArrivalSequence &Arr, Time Horizon) {
  SagReplayOutcome Out;

  ClientConfig Client;
  Client.Tasks = M.tasks();
  Client.NumSockets = M.numSockets();
  Client.Wcets = M.wcets();
  Client.Policy = M.policy();

  Environment Env(Arr);
  // AlwaysWcet is the deterministic adversarial instantiation the
  // abstract intervals were computed against; the seed is irrelevant.
  CostModel Costs(Client.Wcets, CostModelKind::AlwaysWcet, /*Seed=*/1);
  FdScheduler Sched(Client, Env, Costs);

  TimestampCheckSink Ts;
  ProtocolCheckSink Proto(Client.NumSockets);
  FunctionalCheckSink Func(Client.Tasks, Client.Policy);
  ConsistencyCheckSink Cons(Arr);
  WcetCheckSink Wcet(Client.Tasks, Client.Wcets);
  DeadlineCheckSink Deadline(Client.Tasks, Arr);

  TraceFanout Fan;
  Fan.add(Ts);
  Fan.add(Proto);
  Fan.add(Func);
  Fan.add(Cons);
  Fan.add(Wcet);
  Fan.add(Deadline);

  RunLimits Limits;
  Limits.Horizon = Horizon;
  Out.EndTime = Sched.run(Limits, Fan);

  Out.ChecksPassed = Ts.result().passed() && Proto.result().passed() &&
                     Func.result().passed() && Cons.result().passed() &&
                     Wcet.result().passed();
  if (!Deadline.misses().empty()) {
    Out.MissObserved = true;
    Out.Miss = Deadline.misses().front();
  }
  return Out;
}
