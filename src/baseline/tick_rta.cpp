//===- baseline/tick_rta.cpp ----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "baseline/tick_rta.h"

#include "rta/jitter.h"
#include "rta/warm_start.h"

#include <algorithm>

using namespace rprosa;

RtaResult rprosa::analyzeTick(const TaskSet &Tasks, const TickConfig &Cfg,
                              Time FixedPointCap) {
  RtaResult Res;
  TickSupply Supply(Cfg, FixedPointCap);
  // Arrivals are observed at the next tick: release jitter of one
  // quantum.
  Duration Jitter = Cfg.Quantum;
  std::vector<ArrivalCurvePtr> Beta;
  for (const Task &T : Tasks.tasks())
    Beta.push_back(makeReleaseCurve(T.Curve, Jitter));

  auto WorkloadOf = [&](const std::vector<TaskId> &Ks, Duration Len) {
    Duration Sum = 0;
    for (TaskId K : Ks)
      Sum = satAdd(Sum, satMul(Beta[K]->eval(Len), Tasks.task(K).Wcet));
    return Sum;
  };

  for (const Task &Ti : Tasks.tasks()) {
    TaskRta Out;
    Out.Task = Ti.Id;
    Out.Jitter = Jitter;
    // Preemptive: no blocking term; a quantum of priority inversion is
    // already inside the release jitter and the supply alignment loss.
    Out.Blocking = 0;

    std::vector<TaskId> HepOthers = Tasks.higherOrEqualPriorityOthers(Ti.Id);
    std::vector<TaskId> HepAll = HepOthers;
    HepAll.push_back(Ti.Id);

    auto BusyStep = [&](Time L) {
      return std::max<Time>(1, Supply.timeToSupply(WorkloadOf(HepAll, L)));
    };
    std::optional<Time> L =
        leastFixedPointSeeded(BusyStep, 1, /*Seed=*/0, FixedPointCap);
    if (!L) {
      Res.PerTask.push_back(Out);
      continue;
    }
    Out.BusyWindow = *L;

    Duration Rmax = 0;
    bool Diverged = false;
    for (std::uint64_t Q = 1; Q < (1u << 20); ++Q) {
      Duration WindowLen = minWindowAdmitting(*Beta[Ti.Id], Q,
                                              FixedPointCap);
      if (WindowLen == TimeInfinity)
        break;
      Time Aq = WindowLen - 1;
      if (Aq >= *L)
        break;
      // Preemptive FP: hep interference accrues until completion.
      Duration Own = satMul(Q, Ti.Wcet);
      auto FinishStep = [&](Time T) {
        Duration Work =
            satAdd(Own, WorkloadOf(HepOthers, satAdd(T, 1)));
        return std::max<Time>(Aq, Supply.timeToSupply(Work));
      };
      std::optional<Time> F =
          leastFixedPointSeeded(FinishStep, Aq, /*Seed=*/0, FixedPointCap);
      if (!F) {
        Diverged = true;
        break;
      }
      Rmax = std::max<Duration>(Rmax, *F - Aq);
    }
    if (!Diverged) {
      Out.Bounded = true;
      Out.ReleaseRelativeBound = Rmax;
      Out.ResponseBound = satAdd(Rmax, Jitter);
    }
    Res.PerTask.push_back(Out);
  }
  return Res;
}
