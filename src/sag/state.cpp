//===- sag/state.cpp ------------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sag/state.h"

#include "core/arrival_curve.h"
#include "core/arrival_sequence.h"

#include <string>

using namespace rprosa;

SagModel SagModel::build(const TaskSet &Tasks, const BasicActionWcets &W,
                         std::uint32_t NumSockets, SchedPolicy Policy,
                         const SagConfig &Cfg) {
  SagModel M;
  M.Tasks = &Tasks;
  M.Wcets = W;
  M.NumSockets = NumSockets == 0 ? 1 : NumSockets;
  M.Policy = Policy;
  M.Status.noteCheck();

  CheckResult WValid = W.validate();
  if (!WValid.passed()) {
    M.Status.merge(WValid);
    return M;
  }

  // Effective durations under AlwaysWcet: every sampled action takes
  // max(WCET, 1); a successful read takes the poll part plus the
  // completion extra, together max(readTotal, poll part).
  M.Fr = W.FailedRead > 0 ? W.FailedRead : 1;
  M.Tr = W.SuccessfulRead > M.Fr ? W.SuccessfulRead : M.Fr;
  M.Sel = W.Selection > 0 ? W.Selection : 1;
  M.Disp = W.Dispatch > 0 ? W.Dispatch : 1;
  M.Compl = W.Completion > 0 ? W.Completion : 1;
  M.Idle = W.Idling > 0 ? W.Idling : 1;

  std::size_t JobCap = Cfg.MaxJobs < SagMaxJobs ? Cfg.MaxJobs : SagMaxJobs;

  // The bounded-horizon job set: per task, the greedy-dense arrival
  // instants the curve admits before the horizon. A job's possible
  // arrival window is [rmin, rmin + ReleaseJitter].
  for (const Task &T : Tasks.tasks()) {
    if (!T.Curve) {
      M.Status.addFailure("task " + T.Name + " has no arrival curve");
      return M;
    }
    if (Policy == SchedPolicy::Edf && T.Deadline == 0) {
      M.Status.addFailure("task " + T.Name +
                          " has no deadline (required for NP-EDF)");
      return M;
    }
    ArrivalRegulator Reg(*T.Curve);
    for (;;) {
      Time At = Reg.earliest(Reg.last());
      if (At == TimeInfinity || At >= Cfg.Horizon)
        break;
      if (M.Jobs.size() >= JobCap) {
        M.Status.addFailure("job cap exceeded: more than " +
                            std::to_string(JobCap) +
                            " jobs before the horizon (shrink Horizon or "
                            "raise MaxJobs)");
        return M;
      }
      SagJob J;
      J.Task = T.Id;
      J.Index = static_cast<std::uint32_t>(Reg.count());
      // Same task->socket convention as generateWorkload's default.
      J.Socket = static_cast<SocketId>(T.Id % M.NumSockets);
      J.Rmin = At;
      J.Rmax = satAdd(At, Cfg.ReleaseJitter);
      J.Cost = T.Wcet > 0 ? T.Wcet : 1;
      J.Deadline = T.Deadline;
      J.Prio = T.Prio;
      M.Jobs.push_back(J);
      Reg.append(At);
    }
  }

  // Queue-entry windows. Earliest: the read poll that returns the job
  // starts at the latest instant that still sees the arrival
  // (arrival < poll start + Fr), and the successful read returns
  // readTotal ticks after its start. Latest: rmax plus the worst-case
  // poll/select/idle lag; dispatches of *other* jobs in between are
  // edges of the graph, not part of the in-state lag.
  //
  // The lag rests on the machine's read cadence: polling rounds visit
  // every socket once (checkSocketsUntilEmpty), so while the machine
  // cycles poll/select/idle, successive read starts of one socket are
  // at most one full round plus one select/idle gap apart. A pending
  // message is returned by the first read of its socket that starts
  // after its arrival — unless an older message on the same socket is
  // ahead of it (per-socket FIFO), each of which costs one more
  // cadence step. The coarse job-count bound (the whole in-flight
  // phase, one select/idle cycle, and a full next phase) stays as a
  // cap for degenerate sets where everything shares one socket.
  Duration Phase = M.phaseMax(M.Jobs.size());
  M.MaxLag = satAdd(Phase, satAdd(satAdd(satMul(M.NumSockets, M.Fr), 1),
                                  satAdd(M.Sel, M.Idle)));
  Duration Cadence =
      satAdd(satMul(M.NumSockets, M.Tr), satAdd(M.Sel, M.Idle));
  for (SagJob &J : M.Jobs) {
    Time PollStart = satAdd(J.Rmin, 1) > M.Fr ? satAdd(J.Rmin, 1) - M.Fr : 0;
    J.Qmin = satAdd(PollStart, M.Tr);
    J.Qmax = satAdd(J.Rmax, M.MaxLag);
  }
  // Downward iteration: a same-socket message is ahead of J only if it
  // can arrive no later than J and is not certainly drained by the
  // time J's post-arrival reads start (each step stays sound, since it
  // only discounts jobs the previous iterate proves already queued).
  for (int It = 0; It < 3; ++It) {
    bool Changed = false;
    for (std::size_t I = 0; I < M.Jobs.size(); ++I) {
      SagJob &J = M.Jobs[I];
      std::uint64_t Ahead = 0;
      for (std::size_t K = 0; K < M.Jobs.size(); ++K)
        if (K != I && M.Jobs[K].Socket == J.Socket &&
            M.Jobs[K].Rmin <= J.Rmax && M.Jobs[K].Qmax > J.Rmax)
          ++Ahead;
      Duration Lag = satAdd(satMul(Ahead + 1, Cadence), satAdd(M.Tr, 1));
      Time Q = satAdd(J.Rmax, Lag);
      if (Q < J.Qmax) {
        J.Qmax = Q;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  return M;
}

bool SagModel::certainlyPrefers(std::uint32_t K, std::uint32_t J) const {
  const SagJob &A = Jobs[K];
  const SagJob &B = Jobs[J];
  switch (Policy) {
  case SchedPolicy::Npfp:
    // Strictly higher task priority always wins; FIFO within a level
    // is interval-ambiguous, so equal priorities are not certain.
    return A.Prio > B.Prio;
  case SchedPolicy::Edf:
    // Absolute deadline = queue entry + D; certain only when A's latest
    // key beats B's earliest key (ties break by JobId — ambiguous).
    return satAdd(A.Qmax, A.Deadline) < satAdd(B.Qmin, B.Deadline);
  case SchedPolicy::Fifo:
    // Read order: certain when A is queued before B can possibly be.
    return A.Qmax < B.Qmin;
  }
  return false;
}

void rprosa::sagMergeInto(SagState &Into, const SagState &From) {
  if (From.EA < Into.EA)
    Into.EA = From.EA;
  if (From.LA > Into.LA)
    Into.LA = From.LA;
}
