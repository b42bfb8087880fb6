//===- rta/arsa.cpp - The busy-window walk and its three policy parts -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/arsa.h"

#include "rta/rta_policies.h"

#include <algorithm>
#include <memory>
#include <vector>

using namespace rprosa;

namespace {

/// Release offsets examined per task; a busy window holding more
/// releases of the task reports it unbounded.
constexpr std::uint64_t MaxOffsets = 1 << 20;

/// What one analysis run builds once and every task's walk shares.
struct Run {
  /// \p Horizon is the largest window the policy part queries β_k at.
  Run(const TaskSet &Tasks, const BasicActionWcets &W,
      std::uint32_t NumSockets, const RtaConfig &Cfg, Duration Horizon)
      : Tasks(Tasks), Cfg(Cfg), Bounds(OverheadBounds::compute(W, NumSockets)),
        Jitter(Cfg.AccountOverheads ? maxReleaseJitter(Bounds) : 0) {
    std::vector<ArrivalCurvePtr> Alphas;
    for (const Task &T : Tasks.tasks())
      Alphas.push_back(T.Curve);
    Releases = std::make_shared<FlatReleaseSet>(Alphas, Jitter, Horizon);
    if (!Cfg.AccountOverheads) {
      Supply = std::make_unique<IdealSupply>();
      return;
    }
    auto Rossl = std::make_unique<RosslSupply>(
        Releases, Bounds, Cfg.FixedPointCap, !Cfg.AblateCarryIn);
    Rossl->setWarmSeeding(Cfg.WarmIntraPoint);
    Rossl->setTelemetry(Cfg.Telemetry);
    Supply = std::move(Rossl);
  }

  /// β_k(Len) · C_k.
  Duration work(TaskId K, Duration Len) const {
    return satMul(Releases->evalRelease(K, Len), Tasks.task(K).Wcet);
  }

  /// The walk's one fixpoint solver: seeded, capped, counted.
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
  const RtaConfig &Cfg;
  OverheadBounds Bounds;
  /// J_i (0 without overhead accounting).
  Duration Jitter;
  /// The one compilation of the task curves every β_k evaluation of the
  /// run goes through, the supply's job bound included.
  std::shared_ptr<const FlatReleaseSet> Releases;
  /// Rössl's SBF over Releases, or the ideal supply without overheads.
  std::unique_ptr<SupplyModel> Supply;
};

/// NPFP (rta_npfp.h).
class NpfpPart {
public:
  NpfpPart(const Run &R, TaskId I)
      : Blocking(R.Tasks.maxLowerPriorityWcet(I)), R(R), I(I),
        Ci(R.Tasks.task(I).Wcet),
        Hep(R.Tasks.higherOrEqualPriorityOthers(I)) {
    if (R.Cfg.BlockingMinusOne && Blocking > 0)
      --Blocking;
  }

  static Duration horizon(const TaskSet &, const RtaConfig &Cfg) {
    return satAdd(Cfg.FixedPointCap, 2);
  }

  Duration demand(Time L) const { return satAdd(hepWork(L), R.work(I, L)); }

  Time finish(std::uint64_t Q, Time Aq) {
    Duration Prior = satAdd(Blocking, satMul(Q - 1, Ci));
    // Start bound: a fixed point over the higher-or-equal-priority
    // releases up to (and including) the candidate start. S_{q−1} is a
    // sound seed: Prior and A_q grow with q.
    auto StartStep = [&](Time T) {
      Duration Work = satAdd(Prior, hepWork(satAdd(T, 1)));
      return std::max<Time>(Aq, R.Supply->timeToSupply(Work));
    };
    std::optional<Time> S =
        R.solve(StartStep, Aq, R.Cfg.WarmIntraPoint ? PrevS : 0);
    if (!S)
      return TimeInfinity;
    PrevS = *S;
    // The interference is frozen at the start (jobs released after a
    // non-preemptive start cannot precede it), plus the job itself.
    Duration WorkAtStart = satAdd(Prior, hepWork(satAdd(*S, 1)));
    return R.Supply->timeToSupply(satAdd(WorkAtStart, Ci));
  }

  Duration Blocking;

private:
  Duration hepWork(Duration Len) const {
    Duration Sum = 0;
    for (TaskId K : Hep)
      Sum = satAdd(Sum, R.work(K, Len));
    return Sum;
  }

  const Run &R;
  TaskId I;
  Duration Ci;
  std::vector<TaskId> Hep;
  Time PrevS = 0;
};

/// The window of task K's releases that may precede a job of task I
/// released at offset A (rta_policies.h).
using WindowFn = Duration (*)(const Run &, TaskId I, TaskId K, Time A);

/// NP-FIFO and NP-EDF (rta_policies.h).
template <WindowFn Window> class OrderPart {
public:
  OrderPart(const Run &R, TaskId I)
      : Blocking(R.Tasks.maxOtherWcet(I)), R(R), I(I) {}

  /// The EDF window can reach A + 1 + J + D_i − D_k, so the curves are
  /// compiled past the cap by the deadline spread.
  static Duration horizon(const TaskSet &Tasks, const RtaConfig &Cfg) {
    Duration MaxDeadline = 0;
    for (const Task &T : Tasks.tasks())
      MaxDeadline = std::max(MaxDeadline, T.Deadline);
    return satAdd(Cfg.FixedPointCap, satAdd(MaxDeadline, 2));
  }

  Duration demand(Time A) const {
    Duration Sum = 0;
    for (const Task &K : R.Tasks.tasks())
      Sum = satAdd(Sum, R.work(K.Id, Window(R, I, K.Id, A)));
    return Sum;
  }

  /// The job cannot complete before its own release + execution; the
  /// floor is folded in before the walk's cap check.
  Time finish(std::uint64_t, Time Aq) const {
    Time F = R.Supply->timeToSupply(satAdd(Blocking, demand(Aq)));
    return std::max<Time>(F, satAdd(Aq, R.Tasks.task(I).Wcet));
  }

  Duration Blocking;

private:
  const Run &R;
  TaskId I;
};

/// NP-FIFO: releases within A + J + 1 may be read before the job.
Duration fifoWindow(const Run &R, TaskId, TaskId, Time A) {
  return satAdd(satAdd(A, R.Jitter), 1);
}

/// NP-EDF: releases of K whose key (read + D_k) can undercut the job's
/// (read + D_i) lie within A + 1 + J + D_i − D_k, clamped at 0.
Duration edfWindow(const Run &R, TaskId I, TaskId K, Time A) {
  Duration Di = R.Tasks.task(I).Deadline;
  Duration Dk = R.Tasks.task(K).Deadline;
  Duration Base = satAdd(satAdd(A, 1), R.Jitter);
  if (Dk >= Di)
    return Base > Dk - Di ? Base - (Dk - Di) : 0;
  return satAdd(Base, Di - Dk);
}

/// The busy-window walk of arsa.h for task \p I.
template <typename Part> TaskRta walkTask(const Run &R, TaskId I) {
  Part P(R, I);
  TaskRta Out;
  Out.Task = I;
  Out.Jitter = R.Jitter;
  Out.Blocking = P.Blocking;

  auto BusyStep = [&](Time L) {
    Duration Work = satAdd(Out.Blocking, P.demand(L));
    // A busy window is at least one instant long.
    return std::max<Time>(1, R.Supply->timeToSupply(Work));
  };
  std::optional<Time> L = R.solve(BusyStep, 1, 0);
  if (!L)
    return Out; // Unbounded.
  Out.BusyWindow = *L;

  FlatReleaseView BetaI(*R.Releases, I);
  Duration Rmax = 0;
  for (std::uint64_t Q = 1; Q <= MaxOffsets; ++Q) {
    Duration WindowLen = minWindowAdmittingIn(BetaI, Q, R.Cfg.FixedPointCap);
    if (WindowLen == TimeInfinity)
      break; // The curve admits no q-th release at all.
    Time Aq = WindowLen - 1; // Release offset within the busy window.
    if (Aq >= *L)
      break; // Later releases start a new busy window.
    Time F = P.finish(Q, Aq);
    if (exceedsCap(F, R.Cfg.FixedPointCap) || Q == MaxOffsets)
      return Out; // Unbounded, or the offset budget is exhausted.
    Rmax = std::max<Duration>(Rmax, F - Aq);
  }

  Out.Bounded = true;
  Out.ReleaseRelativeBound = Rmax;
  Out.ResponseBound = satAdd(Rmax, R.Jitter);
  return Out;
}

/// One analysis run: every task's walk under the policy part \p Part.
template <typename Part>
RtaResult walk(const TaskSet &Tasks, const BasicActionWcets &W,
               std::uint32_t NumSockets, const RtaConfig &Cfg) {
  Run R(Tasks, W, NumSockets, Cfg, Part::horizon(Tasks, Cfg));
  RtaResult Res;
  Res.Bounds = R.Bounds;
  for (const Task &T : Tasks.tasks())
    Res.PerTask.push_back(walkTask<Part>(R, T.Id));
  return Res;
}

} // namespace

RtaResult rprosa::analyzeNpfp(const TaskSet &Tasks,
                              const BasicActionWcets &W,
                              std::uint32_t NumSockets,
                              const RtaConfig &Cfg) {
  return walk<NpfpPart>(Tasks, W, NumSockets, Cfg);
}

RtaResult rprosa::analyzeNpfp(const TaskSet &Tasks, const TimingInputs &In,
                              std::uint32_t NumSockets,
                              const RtaConfig &Cfg) {
  return analyzePolicy(Tasks, In, NumSockets, SchedPolicy::Npfp, Cfg);
}

RtaResult rprosa::analyzeFifo(const TaskSet &Tasks,
                              const BasicActionWcets &W,
                              std::uint32_t NumSockets,
                              const RtaConfig &Cfg) {
  return walk<OrderPart<fifoWindow>>(Tasks, W, NumSockets, Cfg);
}

RtaResult rprosa::analyzeEdf(const TaskSet &Tasks,
                             const BasicActionWcets &W,
                             std::uint32_t NumSockets,
                             const RtaConfig &Cfg) {
  RtaResult Res = walk<OrderPart<edfWindow>>(Tasks, W, NumSockets, Cfg);
  // Tasks without deadlines cannot be analyzed under EDF. They are still
  // walked and filtered afterwards, which keeps the fixpoint counts.
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
    break;
  case SchedPolicy::Edf:
    return analyzeEdf(Tasks, W, NumSockets, Cfg);
  case SchedPolicy::Fifo:
    return analyzeFifo(Tasks, W, NumSockets, Cfg);
  }
  return analyzeNpfp(Tasks, W, NumSockets, Cfg);
}

RtaResult rprosa::analyzePolicy(const TaskSet &Tasks, const TimingInputs &In,
                                std::uint32_t NumSockets,
                                SchedPolicy Policy, const RtaConfig &Cfg) {
  RtaResult R =
      analyzePolicy(In.applyTo(Tasks), In.Wcets, NumSockets, Policy, Cfg);
  R.Source = In.Source;
  return R;
}
