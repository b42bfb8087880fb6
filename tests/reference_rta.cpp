//===- tests/reference_rta.cpp --------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "reference_rta.h"

#include "support/check.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace rprosa::reference {

/// RtaConfig's former per-task offset budget, now a constant of the
/// library's walk.
constexpr std::uint64_t MaxOffsets = 1 << 20;

namespace detail {

struct AnalysisSetup {
  OverheadBounds Bounds;
  /// J_i (0 without overhead accounting).
  Duration Jitter = 0;
  /// The one compilation of the task curves every β_k evaluation of the
  /// run goes through, the supply's job bound included.
  std::shared_ptr<const FlatReleaseSet> Releases;
  /// Rössl's SBF over Releases, or the ideal supply without overheads.
  std::unique_ptr<SupplyModel> Supply;
};

/// Builds the setup for analyzing \p Tasks under \p Cfg. \p Horizon is
/// the largest window the analysis queries β_k at, which differs per
/// policy (an EDF window reaches past the cap by the deadline spread).
inline AnalysisSetup setUpAnalysis(const TaskSet &Tasks,
                                   const BasicActionWcets &W,
                                   std::uint32_t NumSockets,
                                   const RtaConfig &Cfg, Duration Horizon) {
  AnalysisSetup S;
  S.Bounds = OverheadBounds::compute(W, NumSockets);
  S.Jitter = Cfg.AccountOverheads ? maxReleaseJitter(S.Bounds) : 0;
  std::vector<ArrivalCurvePtr> Alphas;
  for (const Task &T : Tasks.tasks())
    Alphas.push_back(T.Curve);
  // The hot-path kernel: every β_k evaluation goes through one flat
  // compilation of the task curves (core/curve_table.h), never the
  // virtual curve tree. Identical values by construction.
  S.Releases = std::make_shared<FlatReleaseSet>(Alphas, S.Jitter, Horizon);
  if (Cfg.AccountOverheads) {
    auto Rossl = std::make_unique<RosslSupply>(
        S.Releases, S.Bounds, Cfg.FixedPointCap, !Cfg.AblateCarryIn);
    Rossl->setWarmSeeding(Cfg.WarmIntraPoint);
    Rossl->setTelemetry(Cfg.Telemetry);
    S.Supply = std::move(Rossl);
  } else {
    S.Supply = std::make_unique<IdealSupply>();
  }
  return S;
}

} // namespace detail

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
  std::optional<Time> L = solve(BusyStep, 1, 0);
  if (!L)
    return Out; // Unbounded.
  Out.BusyWindow = *L;

  // Walk the release offsets A_q within the busy window.
  FlatReleaseView BetaI(*Setup.Releases, I);
  Duration Rmax = 0;
  Time PrevS = 0; // S_{q-1}: a sound seed for S_q (Prior and A_q grow).
  for (std::uint64_t Q = 1; Q <= MaxOffsets; ++Q) {
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

    if (Q == MaxOffsets)
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

RtaResult analyzeNpfp(const TaskSet &Tasks,
                      const BasicActionWcets &W,
                      std::uint32_t NumSockets,
                      const RtaConfig &Cfg) {
  NpfpAnalysis A(Tasks, W, NumSockets, Cfg);
  return A.run();
}

RtaResult analyzeNpfp(const TaskSet &Tasks, const TimingInputs &In,
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
    std::optional<Time> L =
        leastFixedPointSeeded(BusyStep, 1, 0, Cfg.FixedPointCap, &Iters);
    if (Cfg.Telemetry)
      Cfg.Telemetry->noteFixpoint(Iters, false);
    if (!L)
      return Out;
    Out.BusyWindow = *L;

    FlatReleaseView BetaI(*Setup.Releases, I);
    Duration Rmax = 0;
    for (std::uint64_t Q = 1; Q <= MaxOffsets; ++Q) {
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
      if (Q == MaxOffsets)
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

RtaResult analyzeFifo(const TaskSet &Tasks,
                      const BasicActionWcets &W,
                      std::uint32_t NumSockets,
                      const RtaConfig &Cfg) {
  OrderDrivenAnalysis A(Tasks, W, NumSockets, Cfg);
  return A.run(fifoWindow);
}

RtaResult analyzeEdf(const TaskSet &Tasks,
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

RtaResult analyzePolicy(const TaskSet &Tasks,
                        const BasicActionWcets &W,
                        std::uint32_t NumSockets,
                        SchedPolicy Policy, const RtaConfig &Cfg) {
  switch (Policy) {
  case SchedPolicy::Npfp:
    return reference::analyzeNpfp(Tasks, W, NumSockets, Cfg);
  case SchedPolicy::Edf:
    return reference::analyzeEdf(Tasks, W, NumSockets, Cfg);
  case SchedPolicy::Fifo:
    return reference::analyzeFifo(Tasks, W, NumSockets, Cfg);
  }
  return reference::analyzeNpfp(Tasks, W, NumSockets, Cfg);
}

} // namespace rprosa::reference
