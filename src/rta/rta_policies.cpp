//===- rta/rta_policies.cpp -----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/rta_policies.h"

#include "rta/analysis_setup.h"

#include <algorithm>

using namespace rprosa;

namespace {

/// Shared scaffolding of the order-driven (FIFO/EDF) analyses: jitter,
/// release curves, supply, and the offset walk. The policies differ
/// only in the per-task interference window.
class OrderDrivenAnalysis {
public:
  OrderDrivenAnalysis(const TaskSet &Tasks, const BasicActionWcets &W,
                      std::uint32_t NumSockets, const RtaConfig &Cfg)
      : Tasks(Tasks), Cfg(Cfg),
        Setup(detail::setUpAnalysis(Tasks, W, NumSockets, Cfg,
                                    compileHorizon(Tasks, Cfg))) {}

  /// The interference window of task \p K against a job of task \p I
  /// released at offset \p A: releases of K within this window may
  /// precede the job in the policy order.
  using WindowFn = Duration (*)(const TaskSet &, TaskId I, TaskId K,
                                Time A, Duration Jitter);

  RtaResult run(WindowFn Window) {
    RtaResult Res;
    Res.Bounds = Setup.Bounds;
    for (const Task &T : Tasks.tasks())
      Res.PerTask.push_back(analyzeTask(T.Id, Window));
    return Res;
  }

private:
  /// The EDF window can reach A + 1 + J + D_i − D_k, so the release
  /// curves are compiled past the cap by the deadline spread.
  static Duration compileHorizon(const TaskSet &Tasks, const RtaConfig &Cfg) {
    Duration MaxDeadline = 0;
    for (const Task &T : Tasks.tasks())
      MaxDeadline = std::max(MaxDeadline, T.Deadline);
    return satAdd(Cfg.FixedPointCap, satAdd(MaxDeadline, 2));
  }

  Duration workloadAt(TaskId I, Time A, WindowFn Window) const {
    Duration Sum = 0;
    for (const Task &K : Tasks.tasks())
      Sum = satAdd(Sum,
                   satMul(Setup.Releases->evalRelease(
                              K.Id, Window(Tasks, I, K.Id, A, Setup.Jitter)),
                          K.Wcet));
    return Sum;
  }

  TaskRta analyzeTask(TaskId I, WindowFn Window) const {
    TaskRta Out;
    Out.Task = I;
    Out.Jitter = Setup.Jitter;
    Out.Blocking = Tasks.maxOtherWcet(I);

    // Busy-window bound: the workload formula evaluated at L (monotone
    // in L, so the least fixed point is sound).
    auto BusyStep = [&](Time L) {
      Duration Work = satAdd(Out.Blocking, workloadAt(I, L, Window));
      return std::max<Time>(1, Setup.Supply->timeToSupply(Work));
    };
    std::uint64_t Iters = 0;
    Duration BusySeed = Cfg.Warm ? Cfg.Warm->busyWindowSeed(I) : 0;
    std::optional<Time> L = leastFixedPointSeeded(
        BusyStep, 1, BusySeed, Cfg.FixedPointCap, &Iters);
    if (Cfg.Telemetry)
      Cfg.Telemetry->noteFixpoint(Iters, BusySeed > 1);
    if (!L)
      return Out;
    Out.BusyWindow = *L;

    FlatReleaseView BetaI(*Setup.Releases, I);
    Duration Rmax = 0;
    for (std::uint64_t Q = 1; Q <= Cfg.MaxOffsets; ++Q) {
      Duration WindowLen = minWindowAdmittingIn(BetaI, Q,
                                                Cfg.FixedPointCap);
      if (WindowLen == TimeInfinity)
        break;
      Time Aq = WindowLen - 1;
      if (Aq >= *L)
        break;
      Duration Work = satAdd(Out.Blocking, workloadAt(I, Aq, Window));
      Time F = Setup.Supply->timeToSupply(Work);
      // The job cannot complete before its own release + execution.
      // The floor must be folded in *before* the cap check: a finish
      // bound pushed past the cap (or saturated) by the floor is just
      // as unbounded as one the supply inverse produced directly, and
      // checking first used to let such a bound through as "Bounded".
      F = std::max<Time>(F, satAdd(Aq, Tasks.task(I).Wcet));
      if (exceedsCap(F, Cfg.FixedPointCap))
        return Out;
      Rmax = std::max<Duration>(Rmax, F - Aq);
      if (Q == Cfg.MaxOffsets)
        return Out;
    }

    Out.Bounded = true;
    Out.ReleaseRelativeBound = Rmax;
    Out.ResponseBound = satAdd(Rmax, Setup.Jitter);
    return Out;
  }

  const TaskSet &Tasks;
  RtaConfig Cfg;
  detail::AnalysisSetup Setup;
};

Duration fifoWindow(const TaskSet &, TaskId, TaskId, Time A,
                    Duration Jitter) {
  // Releases within A + J + 1 may be read before our job.
  return satAdd(satAdd(A, Jitter), 1);
}

Duration edfWindow(const TaskSet &Tasks, TaskId I, TaskId K, Time A,
                   Duration Jitter) {
  // Releases of K whose key (read + D_k) can undercut ours
  // (read + D_i): window A + 1 + J + D_i − D_k, clamped at 0.
  Duration Di = Tasks.task(I).Deadline;
  Duration Dk = Tasks.task(K).Deadline;
  Duration Base = satAdd(satAdd(A, 1), Jitter);
  if (Dk >= Di) {
    Duration Shrink = Dk - Di;
    return Base > Shrink ? Base - Shrink : 0;
  }
  return satAdd(Base, Di - Dk);
}

} // namespace

RtaResult rprosa::analyzeFifo(const TaskSet &Tasks,
                              const BasicActionWcets &W,
                              std::uint32_t NumSockets,
                              const RtaConfig &Cfg) {
  OrderDrivenAnalysis A(Tasks, W, NumSockets, Cfg);
  return A.run(fifoWindow);
}

RtaResult rprosa::analyzeEdf(const TaskSet &Tasks,
                             const BasicActionWcets &W,
                             std::uint32_t NumSockets,
                             const RtaConfig &Cfg) {
  OrderDrivenAnalysis A(Tasks, W, NumSockets, Cfg);
  RtaResult Res = A.run(edfWindow);
  // Tasks without deadlines cannot be analyzed under EDF.
  for (TaskRta &T : Res.PerTask)
    if (Tasks.task(T.Task).Deadline == 0)
      T.Bounded = false;
  return Res;
}

RtaResult rprosa::analyzePolicy(const TaskSet &Tasks,
                                const BasicActionWcets &W,
                                std::uint32_t NumSockets,
                                SchedPolicy Policy, const RtaConfig &Cfg) {
  switch (Policy) {
  case SchedPolicy::Npfp:
    return analyzeNpfp(Tasks, W, NumSockets, Cfg);
  case SchedPolicy::Edf:
    return analyzeEdf(Tasks, W, NumSockets, Cfg);
  case SchedPolicy::Fifo:
    return analyzeFifo(Tasks, W, NumSockets, Cfg);
  }
  return analyzeNpfp(Tasks, W, NumSockets, Cfg);
}
