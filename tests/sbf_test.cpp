//===- tests/sbf_test.cpp - Supply-bound-function tests (§4.4) ------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/sbf.h"

#include "rta/jitter.h"
#include "rta/warm_start.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <memory>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// The release set the analyses build: the raw α_i, shifted by J.
std::shared_ptr<const FlatReleaseSet>
releases(std::vector<ArrivalCurvePtr> Alphas, Duration J, Time Cap) {
  return std::make_shared<FlatReleaseSet>(Alphas, J, Cap);
}

RosslSupply makeSupply(std::uint32_t NumSockets = 1,
                       Duration Period = 1000) {
  OverheadBounds B = OverheadBounds::compute(tinyWcets(), NumSockets);
  Duration J = maxReleaseJitter(B);
  return RosslSupply(
      releases({std::make_shared<PeriodicCurve>(Period)}, J, 1000000), B,
      /*Cap=*/1000000);
}

} // namespace

TEST(OverheadBounds, ComputedFromWcets) {
  // tinyWcets: FR=4 SR=10 Sel=3 Disp=2 Compl=5 Idling=8.
  OverheadBounds B = OverheadBounds::compute(tinyWcets(), 3);
  EXPECT_EQ(B.PB, 12u); // 3 sockets x FR.
  EXPECT_EQ(B.SB, 3u);
  EXPECT_EQ(B.DB, 2u);
  EXPECT_EQ(B.CB, 5u);
  EXPECT_EQ(B.RB, 22u); // PB + SR.
  EXPECT_EQ(B.IB, 23u); // PB + SB + Idling.
  EXPECT_EQ(B.perJobNonReadOverhead(), 22u);
}

TEST(OverheadBounds, PollingBoundScalesWithSockets) {
  OverheadBounds B1 = OverheadBounds::compute(tinyWcets(), 1);
  OverheadBounds B8 = OverheadBounds::compute(tinyWcets(), 8);
  EXPECT_EQ(B8.PB, 8 * B1.PB);
}

TEST(RosslSupply, JobBoundIncludesCarryIn) {
  RosslSupply S = makeSupply();
  // At Delta=0 the release curve gives 0, but one carry-in per task.
  EXPECT_EQ(S.jobBound(0), 1u);
  EXPECT_GE(S.jobBound(10000), 10u);
}

TEST(RosslSupply, JobBoundSumsTheReleaseCurves) {
  // NJobs(Δ) = Σ_i (β_i(Δ) + 1) with β_i = makeReleaseCurve(α_i, J).
  OverheadBounds B = OverheadBounds::compute(tinyWcets(), 2);
  Duration J = maxReleaseJitter(B);
  std::vector<ArrivalCurvePtr> Alphas = {
      std::make_shared<PeriodicCurve>(700),
      std::make_shared<LeakyBucketCurve>(3, 2000)};
  RosslSupply S(releases(Alphas, J, 1000000), B, 1000000);
  for (Duration D : {0ull, 1ull, 50ull, 699ull, 5000ull, 123456ull}) {
    std::uint64_t Expected = 0;
    for (const ArrivalCurvePtr &A : Alphas)
      Expected += makeReleaseCurve(A, J)->eval(D) + 1;
    EXPECT_EQ(S.jobBound(D), Expected) << "Delta=" << D;
  }
}

TEST(RosslSupply, RequiresAReleaseSet) {
  OverheadBounds B = OverheadBounds::compute(tinyWcets(), 1);
  EXPECT_DEATH(RosslSupply(nullptr, B, 1000),
               "RosslSupply requires a release set");
}

TEST(RosslSupply, MemoCountersFollowTheContract) {
  // A hit is a timeToSupply call answered from the memo, a miss one
  // that ran the blackout fixpoint, and Work == 0 is neither. The
  // totals reach the sink once, when the supply retires.
  FixpointTelemetry Tel;
  {
    RosslSupply S = makeSupply();
    S.setTelemetry(&Tel);
    for (Duration W : {0ull, 100ull, 100ull, 200ull, 0ull, 100ull, 50ull})
      S.timeToSupply(W);
    EXPECT_EQ(Tel.snapshot().SupplyMemoHits, 0u);
    EXPECT_EQ(Tel.snapshot().SupplyMemoMisses, 0u);
  }
  FixpointCounts C = Tel.snapshot();
  EXPECT_EQ(C.SupplyMemoHits, 2u);   // The repeated 100s.
  EXPECT_EQ(C.SupplyMemoMisses, 3u); // 100, 200 and 50.
  EXPECT_GT(C.SupplyIterations, 0u);

  // With warm seeding, a demand above a memoized ∞ is answered by the
  // monotone shortcut without a fixpoint: a hit.
  OverheadBounds B = OverheadBounds::compute(tinyWcets(), 4);
  Tel.reset();
  {
    RosslSupply S(releases({std::make_shared<PeriodicCurve>(10)}, 0,
                           100000),
                  B, /*Cap=*/100000);
    S.setWarmSeeding(true);
    S.setTelemetry(&Tel);
    EXPECT_EQ(S.timeToSupply(50), TimeInfinity); // Miss.
    EXPECT_EQ(S.timeToSupply(60), TimeInfinity); // Shortcut hit.
    EXPECT_EQ(S.timeToSupply(60), TimeInfinity); // Exact hit.
    EXPECT_EQ(S.timeToSupply(0), 0u);            // Neither.
  }
  C = Tel.snapshot();
  EXPECT_EQ(C.SupplyMemoHits, 2u);
  EXPECT_EQ(C.SupplyMemoMisses, 1u);
}

TEST(RosslSupply, BlackoutDecomposition) {
  RosslSupply S = makeSupply();
  for (Duration D : {0ull, 100ull, 5000ull})
    EXPECT_EQ(S.blackoutBound(D), S.trb(D) + S.nrb(D));
}

TEST(RosslSupply, SbfAtZeroIsZero) {
  RosslSupply S = makeSupply();
  EXPECT_EQ(S.supplyBound(0), 0u);
}

TEST(RosslSupply, SbfIsMonotone) {
  RosslSupply S = makeSupply();
  Duration Prev = 0;
  for (Duration D = 0; D <= 20000; D += 137) {
    Duration V = S.supplyBound(D);
    EXPECT_GE(V, Prev) << "SBF not monotone at Delta=" << D;
    EXPECT_LE(V, D) << "supply cannot exceed wall-clock time";
    Prev = V;
  }
}

TEST(RosslSupply, TimeToSupplyIsInverseOfSbf) {
  RosslSupply S = makeSupply();
  for (Duration W : {0ull, 1ull, 10ull, 500ull, 3000ull}) {
    Time T = S.timeToSupply(W);
    ASSERT_NE(T, TimeInfinity) << "W=" << W;
    EXPECT_GE(S.supplyBound(T), W);
    if (T > 0) {
      EXPECT_LT(S.supplyBound(T - 1), W)
          << "timeToSupply not minimal for W=" << W;
    }
  }
}

TEST(RosslSupply, TimeToSupplyDivergesUnderOverload) {
  // A release rate so high that blackout eats all time: one job every
  // 10 ticks, but per-job overhead far exceeds 10 ticks.
  OverheadBounds B = OverheadBounds::compute(tinyWcets(), 4);
  RosslSupply S(releases({std::make_shared<PeriodicCurve>(10)}, 0, 100000),
                B, /*Cap=*/100000);
  EXPECT_EQ(S.timeToSupply(50), TimeInfinity);
}

TEST(RosslSupply, MoreSocketsMeanLessSupply) {
  RosslSupply S1 = makeSupply(1);
  RosslSupply S8 = makeSupply(8);
  // Same workload, more polling overhead: the 8-socket deployment
  // supplies no more than the 1-socket one.
  for (Duration D : {1000ull, 5000ull, 20000ull})
    EXPECT_LE(S8.supplyBound(D), S1.supplyBound(D));
}

TEST(IdealSupply, IsIdentity) {
  IdealSupply S;
  EXPECT_EQ(S.supplyBound(0), 0u);
  EXPECT_EQ(S.supplyBound(123), 123u);
  EXPECT_EQ(S.timeToSupply(77), 77u);
}

TEST(LeastFixedPoint, FindsSmallestSolution) {
  // F(t) = 10 + ⌊t/2⌋ has least fixed point 19 over the naturals
  // (19 = 10 + 9; 18 maps to 19).
  auto F = [](Time T) { return 10 + T / 2; };
  std::optional<Time> T = leastFixedPointSeeded(F, 0, 0, 1000);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(*T, 19u);
}

TEST(LeastFixedPoint, DetectsDivergence) {
  auto F = [](Time T) { return T + 1; };
  EXPECT_FALSE(leastFixedPointSeeded(F, 0, 0, 1000).has_value());
}

TEST(RosslSupply, EmpiricalSoundnessOnSimulatedRun) {
  // Measured blackout in busy windows anchored at Idle->nonIdle
  // transitions must never exceed BlackoutBound.
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 5000;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  TimedTrace TT = runRossl(C, Arr, 8000);
  ConversionResult CR = convertTraceToSchedule(TT, 2);

  OverheadBounds B = OverheadBounds::compute(C.Wcets, 2);
  Duration J = maxReleaseJitter(B);
  std::vector<ArrivalCurvePtr> Alphas;
  for (const Task &T : C.Tasks.tasks())
    Alphas.push_back(T.Curve);
  RosslSupply S(releases(Alphas, J, 1000000), B, 1000000);

  std::vector<Time> Anchors = CR.Sched.busyWindowAnchors();

  for (Time A : Anchors) {
    for (Duration D : {50ull, 200ull, 1000ull, 4000ull}) {
      Duration Measured = CR.Sched.blackoutIn(A, A + D);
      EXPECT_LE(Measured, S.blackoutBound(D))
          << "anchor=" << A << " Delta=" << D;
      Duration Supply = CR.Sched.supplyIn(A, A + D);
      EXPECT_GE(Supply, S.supplyBound(D))
          << "anchor=" << A << " Delta=" << D;
    }
  }
}
