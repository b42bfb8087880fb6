//===- tests/rta_reference_test.cpp - The walk against its oracle ---------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The library's one busy-window walk (rta/arsa.h) against the
/// per-policy analyses it replaced (tests/reference_rta.h), on random
/// systems: 1–8 tasks on 1–8 sockets with periodic, leaky-bucket,
/// periodic-with-jitter, staircase and zero curves and their Sum, Min,
/// Scaled and Shifted combinations; shared priorities; EDF tasks with
/// and without a deadline; all three policies; every RtaConfig switch
/// on and off; caps down to a few ticks and exactly at a solved busy
/// window; and timing inputs with callback overrides. Every TaskRta
/// field, the overhead bounds, the timing source and all six fixpoint
/// counters must agree.
/// RPROSA_FUZZ_SEED picks a fresh set of systems; a failure names it.
///
//===----------------------------------------------------------------------===//

#include "reference_rta.h"
#include "test_util.h"

#include "support/rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

using namespace rprosa;
using rprosa::testutil::fuzzSeed;

namespace {

constexpr int SystemsPerSeed = 2000;

ArrivalCurvePtr baseCurve(SplitMix64 &Rng, Duration Period) {
  switch (Rng.nextInRange(0, 9)) {
  case 0:
  case 1:
    return std::make_shared<PeriodicCurve>(Period);
  case 2:
  case 3:
    return std::make_shared<LeakyBucketCurve>(Rng.nextInRange(1, 3), Period);
  case 4:
  case 5:
    return std::make_shared<PeriodicJitterCurve>(
        Period, Rng.nextInRange(0, Period));
  case 6:
  case 7: {
    // A few explicit steps, then either a linear tail or a constant one
    // (a curve that admits finitely many releases).
    std::vector<StaircaseCurve::Step> Steps;
    Duration Len = 0;
    std::uint64_t Bound = 0;
    for (std::uint64_t N = Rng.nextInRange(1, 3); N > 0; --N) {
      Len += Rng.nextInRange(1, Period);
      Bound += Rng.nextInRange(1, 2);
      Steps.push_back({Len, Bound});
    }
    return std::make_shared<StaircaseCurve>(
        std::move(Steps), Rng.nextBernoulli(2, 3) ? Period : 0);
  }
  case 8:
    return std::make_shared<ZeroCurve>();
  default:
    return std::make_shared<PeriodicCurve>(Rng.nextInRange(1, Period));
  }
}

ArrivalCurvePtr randomCurve(SplitMix64 &Rng, Duration Period) {
  switch (Rng.nextInRange(0, 7)) {
  case 0:
    return std::make_shared<SumCurve>(std::vector<ArrivalCurvePtr>{
        baseCurve(Rng, 2 * Period), baseCurve(Rng, 2 * Period)});
  case 1:
    return std::make_shared<MinCurve>(baseCurve(Rng, Period),
                                      baseCurve(Rng, Period));
  case 2:
    return std::make_shared<ScaledCurve>(baseCurve(Rng, 2 * Period),
                                         Rng.nextInRange(1, 2));
  case 3:
    return std::make_shared<ShiftedCurve>(baseCurve(Rng, Period),
                                          Rng.nextInRange(0, Period / 2));
  default:
    return baseCurve(Rng, Period);
  }
}

BasicActionWcets randomWcets(SplitMix64 &Rng) {
  BasicActionWcets W;
  W.FailedRead = Rng.nextInRange(0, 4);
  W.SuccessfulRead = W.FailedRead + Rng.nextInRange(0, 8);
  W.Selection = Rng.nextInRange(0, 4);
  W.Dispatch = Rng.nextInRange(0, 4);
  W.Completion = Rng.nextInRange(0, 4);
  // Now and then a release jitter far above the per-job blackout: only
  // then can an order-driven finish bound need its A_q + C_i floor.
  W.Idling = Rng.nextInRange(0, Rng.nextBernoulli(1, 4) ? 400 : 8);
  return W;
}

/// One random analysis question.
struct System {
  TaskSet Tasks;
  BasicActionWcets W;
  std::uint32_t NumSockets = 1;
  SchedPolicy Policy = SchedPolicy::Npfp;
  RtaConfig Cfg;
  /// When set, both sides run from these timing inputs.
  std::optional<TimingInputs> In;
};

System randomSystem(SplitMix64 &Rng) {
  System S;
  S.NumSockets = static_cast<std::uint32_t>(Rng.nextInRange(1, 8));
  S.W = randomWcets(Rng);
  S.Policy = static_cast<SchedPolicy>(Rng.nextInRange(0, 2));
  std::size_t N = Rng.nextInRange(1, 8);
  // Periods scale with the task count and the per-job overhead, so the
  // draws span idle, loaded and overloaded systems.
  Duration Scale = N * (20 + S.NumSockets * 8);
  for (std::size_t K = 0; K < N; ++K) {
    Duration Period = Rng.nextInRange(Scale / 2, 4 * Scale);
    Duration Deadline =
        Rng.nextBernoulli(1, 4) ? 0 : Rng.nextInRange(1, 3 * Period);
    S.Tasks.addTask("t" + std::to_string(K), Rng.nextInRange(1, 60),
                    static_cast<Priority>(Rng.nextInRange(1, 3)),
                    randomCurve(Rng, Period), Deadline);
  }
  S.Cfg.AccountOverheads = Rng.nextBernoulli(4, 5);
  S.Cfg.AblateCarryIn = Rng.nextBernoulli(1, 4);
  S.Cfg.BlockingMinusOne = Rng.nextBernoulli(1, 3);
  S.Cfg.WarmIntraPoint = Rng.nextBernoulli(3, 4);
  // Caps stay far below the default: with utilization at exactly 1 the
  // busy window grows by a constant per iteration until it hits the
  // cap, and both sides would memoize one supply inverse per step.
  switch (Rng.nextInRange(0, 4)) {
  case 0:
    S.Cfg.FixedPointCap = Rng.nextInRange(1, 12); // Unbounded exits.
    break;
  case 1:
    S.Cfg.FixedPointCap = Rng.nextInRange(13, 2000);
    break;
  default:
    S.Cfg.FixedPointCap = Rng.nextInRange(2000, 2000000);
    break;
  }
  if (Rng.nextBernoulli(1, 3)) {
    TimingInputs In;
    In.Wcets = randomWcets(Rng);
    // Overrides for a prefix of the tasks; the rest keep their C_i.
    for (std::size_t K = Rng.nextInRange(0, N); K > 0; --K)
      In.CallbackWcets.push_back(Rng.nextInRange(1, 90));
    In.Source = Rng.nextBernoulli(1, 2) ? TimingSource::StaticAnalysis
                                        : TimingSource::HandSupplied;
    S.In = In;
  }
  return S;
}

/// The parent's TimingInputs composition (its NPFP overload), for every
/// policy: callback overrides folded into a fresh task set.
RtaResult referenceRun(const System &S, const RtaConfig &Cfg) {
  if (!S.In)
    return reference::analyzePolicy(S.Tasks, S.W, S.NumSockets, S.Policy,
                                    Cfg);
  if (S.Policy == SchedPolicy::Npfp)
    return reference::analyzeNpfp(S.Tasks, *S.In, S.NumSockets, Cfg);
  TaskSet Derived;
  for (const Task &T : S.Tasks.tasks())
    Derived.addTask(T.Name, S.In->callbackWcet(T.Id, T.Wcet), T.Prio,
                    T.Curve, T.Deadline);
  RtaResult R = reference::analyzePolicy(Derived, S.In->Wcets, S.NumSockets,
                                         S.Policy, Cfg);
  R.Source = S.In->Source;
  return R;
}

RtaResult libraryRun(const System &S, const RtaConfig &Cfg) {
  if (S.In)
    return analyzePolicy(S.Tasks, *S.In, S.NumSockets, S.Policy, Cfg);
  return analyzePolicy(S.Tasks, S.W, S.NumSockets, S.Policy, Cfg);
}

/// Every field the two sides must agree on, one line.
std::string render(const RtaResult &R, const FixpointCounts &C) {
  std::string Out = toString(R.Source) + " bounds";
  for (Duration D : {R.Bounds.PB, R.Bounds.SB, R.Bounds.DB, R.Bounds.CB,
                     R.Bounds.RB, R.Bounds.IB})
    Out += " " + std::to_string(D);
  for (const TaskRta &T : R.PerTask)
    Out += " | task " + std::to_string(T.Task) + " bounded " +
           std::to_string(T.Bounded) + " R " +
           std::to_string(T.ReleaseRelativeBound) + " J " +
           std::to_string(T.Jitter) + " RJ " +
           std::to_string(T.ResponseBound) + " L " +
           std::to_string(T.BusyWindow) + " B " + std::to_string(T.Blocking);
  for (std::uint64_t N : {C.Fixpoints, C.Iterations, C.SupplyIterations,
                          C.Seeded, C.SupplyMemoHits, C.SupplyMemoMisses})
    Out += " " + std::to_string(N);
  return Out;
}

/// What the generated systems reached, so the draw cannot silently stop
/// covering an exit of the walk.
struct Coverage {
  int PerPolicy[3] = {0, 0, 0};
  int Bounded = 0;
  int BusyUnbounded = 0;   ///< The busy-window fixpoint hit the cap.
  int OffsetUnbounded = 0; ///< A finish bound or start bound did.
  int AtCap = 0;           ///< A busy window solved to exactly the cap.
  int EdfWithoutDeadline = 0;
  int WithInputs = 0;
};

TEST(RtaReference, WalkMatchesThePerPolicyAnalyses) {
  const std::uint64_t Seed = fuzzSeed(18);
  SCOPED_TRACE("replay with RPROSA_FUZZ_SEED=" + std::to_string(Seed));
  SplitMix64 Rng(Seed ^ 0x5a5a);
  Coverage Cov;
  for (int I = 0; I < SystemsPerSeed; ++I) {
    SCOPED_TRACE("system " + std::to_string(I));
    System S = randomSystem(Rng);

    // Pin the cap at (or just below) a solved busy window.
    if (Rng.nextBernoulli(1, 6)) {
      RtaResult Probe = libraryRun(S, S.Cfg);
      for (const TaskRta &T : Probe.PerTask)
        if (T.Bounded && T.BusyWindow > 1) {
          S.Cfg.FixedPointCap = T.BusyWindow - Rng.nextInRange(0, 1);
          break;
        }
    }

    FixpointTelemetry RefTel, LibTel;
    RtaConfig RefCfg = S.Cfg, LibCfg = S.Cfg;
    RefCfg.Telemetry = &RefTel;
    LibCfg.Telemetry = &LibTel;
    RtaResult Want = referenceRun(S, RefCfg);
    RtaResult Got = libraryRun(S, LibCfg);
    ASSERT_EQ(render(Got, LibTel.snapshot()), render(Want, RefTel.snapshot()));

    ++Cov.PerPolicy[static_cast<int>(S.Policy)];
    Cov.WithInputs += S.In.has_value();
    for (const TaskRta &T : Want.PerTask) {
      Cov.Bounded += T.Bounded;
      Cov.BusyUnbounded += !T.Bounded && T.BusyWindow == 0;
      Cov.OffsetUnbounded += !T.Bounded && T.BusyWindow > 0;
      Cov.AtCap += T.BusyWindow == S.Cfg.FixedPointCap;
      Cov.EdfWithoutDeadline += S.Policy == SchedPolicy::Edf &&
                                S.Tasks.task(T.Task).Deadline == 0;
    }
  }
  for (int N : Cov.PerPolicy)
    EXPECT_GT(N, SystemsPerSeed / 5);
  EXPECT_GT(Cov.Bounded, 0);
  EXPECT_GT(Cov.BusyUnbounded, 0);
  EXPECT_GT(Cov.OffsetUnbounded, 0);
  EXPECT_GT(Cov.AtCap, 0);
  EXPECT_GT(Cov.EdfWithoutDeadline, 0);
  EXPECT_GT(Cov.WithInputs, 0);
}

} // namespace
