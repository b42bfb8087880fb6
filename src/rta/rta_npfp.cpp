//===- rta/rta_npfp.cpp ---------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/rta_npfp.h"

#include "rta/analysis_setup.h"

#include "support/check.h"

#include <algorithm>

using namespace rprosa;

bool RtaResult::allBounded() const {
  for (const TaskRta &T : PerTask)
    if (!T.Bounded)
      return false;
  return !PerTask.empty();
}

bool rprosa::meetsDeadlines(const RtaResult &R, const TaskSet &Tasks) {
  if (!R.allBounded())
    return false;
  for (const Task &T : Tasks.tasks()) {
    if (T.Deadline == 0)
      continue; // Unconstrained task: Bounded is all there is to show.
    if (R.forTask(T.Id).ResponseBound > T.Deadline)
      return false;
  }
  return true;
}

const TaskRta &RtaResult::forTask(TaskId Id) const {
  // Armed in every build type: an out-of-range id in a Release binary
  // would otherwise read past the vector and hand the caller garbage
  // bounds (experiment drivers run Release).
  RPROSA_CHECK(Id < PerTask.size(), "task id out of range for this result");
  RPROSA_CHECK(PerTask[Id].Task == Id, "per-task results are indexed by id");
  return PerTask[Id];
}

namespace {

/// One analysis run: task set + curves + supply, shared across tasks.
class NpfpAnalysis {
public:
  NpfpAnalysis(const TaskSet &Tasks, const BasicActionWcets &W,
               std::uint32_t NumSockets, const RtaConfig &Cfg)
      : Tasks(Tasks), Cfg(Cfg),
        Setup(detail::setUpAnalysis(Tasks, W, NumSockets, Cfg,
                                    satAdd(Cfg.FixedPointCap, 2))) {}

  RtaResult run();

private:
  TaskRta analyzeTask(TaskId I) const;

  /// Σ_{k ∈ Ks} β_k(Len) · C_k.
  Duration workloadOf(const std::vector<TaskId> &Ks, Duration Len) const {
    Duration Sum = 0;
    for (TaskId K : Ks)
      Sum = satAdd(Sum, satMul(Setup.Releases->evalRelease(K, Len),
                               Tasks.task(K).Wcet));
    return Sum;
  }

  /// Runs one outer fixpoint with seeding + telemetry.
  std::optional<Time> solve(const std::function<Time(Time)> &F, Time Start,
                            Time Seed) const {
    std::uint64_t Iters = 0;
    std::optional<Time> T =
        leastFixedPointSeeded(F, Start, Seed, Cfg.FixedPointCap, &Iters);
    if (Cfg.Telemetry)
      Cfg.Telemetry->noteFixpoint(Iters, Seed > Start);
    return T;
  }

  const TaskSet &Tasks;
  RtaConfig Cfg;
  detail::AnalysisSetup Setup;
};

} // namespace

TaskRta NpfpAnalysis::analyzeTask(TaskId I) const {
  TaskRta Out;
  Out.Task = I;
  Out.Jitter = Setup.Jitter;
  const Task &Ti = Tasks.task(I);

  // Non-preemptive blocking: one lower-priority job may have just
  // started (conservatively a full C_k; with the classic -1 when the
  // analysis is configured for it).
  Out.Blocking = Tasks.maxLowerPriorityWcet(I);
  if (Cfg.BlockingMinusOne && Out.Blocking > 0)
    --Out.Blocking;

  // Busy-window length: least L with SBF(L) >= B_i + hep-and-own
  // workload released within L.
  std::vector<TaskId> HepOthers = Tasks.higherOrEqualPriorityOthers(I);
  std::vector<TaskId> HepAll = HepOthers;
  HepAll.push_back(I);
  auto BusyStep = [&](Time L) {
    Duration Work = satAdd(Out.Blocking, workloadOf(HepAll, L));
    // A busy window is at least one instant long.
    return std::max<Time>(1, Setup.Supply->timeToSupply(Work));
  };
  // Seed the busy window from a demand-dominated neighbor's solution
  // when the caller supplied one (sound per warm_start.h: the
  // neighbor's lfp is ≤ ours).
  Duration BusySeed = Cfg.Warm ? Cfg.Warm->busyWindowSeed(I) : 0;
  std::optional<Time> L = solve(BusyStep, 1, BusySeed);
  if (!L)
    return Out; // Unbounded.
  Out.BusyWindow = *L;

  // Walk the release offsets A_q within the busy window.
  FlatReleaseView BetaI(*Setup.Releases, I);
  Duration Rmax = 0;
  Time PrevS = 0; // S_{q-1}: a sound seed for S_q (Prior and A_q grow).
  for (std::uint64_t Q = 1; Q <= Cfg.MaxOffsets; ++Q) {
    Duration WindowLen = minWindowAdmittingIn(BetaI, Q, Cfg.FixedPointCap);
    if (WindowLen == TimeInfinity)
      break; // The curve admits no q-th release at all.
    Time Aq = WindowLen - 1; // Release offset within the busy window.
    if (Aq >= *L)
      break; // Later releases start a new busy window.

    Duration Prior = satAdd(Out.Blocking, satMul(Q - 1, Ti.Wcet));

    // Start bound: a fixed point over the higher-or-equal-priority
    // releases up to (and including) the candidate start.
    auto StartStep = [&](Time T) {
      Duration Work = satAdd(Prior, workloadOf(HepOthers, satAdd(T, 1)));
      return std::max<Time>(Aq, Setup.Supply->timeToSupply(Work));
    };
    std::optional<Time> S =
        solve(StartStep, Aq, Cfg.WarmIntraPoint ? PrevS : 0);
    if (!S)
      return Out; // Unbounded.
    PrevS = *S;

    // Finish bound: the same interference (frozen at the start — jobs
    // released after a non-preemptive start cannot precede it) plus the
    // job's own execution.
    Duration WorkAtStart =
        satAdd(Prior, workloadOf(HepOthers, satAdd(*S, 1)));
    Time F = Setup.Supply->timeToSupply(satAdd(WorkAtStart, Ti.Wcet));
    if (exceedsCap(F, Cfg.FixedPointCap))
      return Out; // Unbounded.

    Rmax = std::max<Duration>(Rmax, F - Aq);

    if (Q == Cfg.MaxOffsets)
      return Out; // Offset budget exhausted: report unbounded.
  }

  Out.Bounded = true;
  Out.ReleaseRelativeBound = Rmax;
  Out.ResponseBound = satAdd(Rmax, Setup.Jitter);
  return Out;
}

RtaResult NpfpAnalysis::run() {
  RtaResult Res;
  Res.Bounds = Setup.Bounds;
  for (const Task &T : Tasks.tasks())
    Res.PerTask.push_back(analyzeTask(T.Id));
  return Res;
}

RtaResult rprosa::analyzeNpfp(const TaskSet &Tasks,
                              const BasicActionWcets &W,
                              std::uint32_t NumSockets,
                              const RtaConfig &Cfg) {
  NpfpAnalysis A(Tasks, W, NumSockets, Cfg);
  return A.run();
}

RtaResult rprosa::analyzeNpfp(const TaskSet &Tasks, const TimingInputs &In,
                              std::uint32_t NumSockets,
                              const RtaConfig &Cfg) {
  // Rebuild the task set with the callback-WCET overrides; ids are
  // dense and assigned in insertion order, so they are preserved.
  TaskSet Derived;
  for (const Task &T : Tasks.tasks())
    Derived.addTask(T.Name, In.callbackWcet(T.Id, T.Wcet), T.Prio, T.Curve,
                    T.Deadline);
  NpfpAnalysis A(Derived, In.Wcets, NumSockets, Cfg);
  RtaResult R = A.run();
  R.Source = In.Source;
  return R;
}
