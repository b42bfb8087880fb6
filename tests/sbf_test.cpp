//===- tests/sbf_test.cpp - Supply-bound-function tests (§4.4) ------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/sbf.h"

#include "rta/jitter.h"
#include "rta/warm_start.h"

#include "support/rng.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

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

TEST(RosslSupply, MemoStopsStoringAtItsCapacity) {
  // Answers past the capacity are computed but not stored: a repeated
  // W past the cap is a miss each time, one stored below it a hit.
  FixpointTelemetry Tel;
  const Duration Full = RosslSupply::MemoCapacity;
  {
    RosslSupply S = makeSupply();
    S.setWarmSeeding(true);
    S.setTelemetry(&Tel);
    for (Duration W = 1; W <= Full; ++W)
      S.timeToSupply(W);
    Time Past = S.timeToSupply(Full + 1);
    EXPECT_EQ(S.timeToSupply(Full + 1), Past);
    S.timeToSupply(1);
  }
  FixpointCounts C = Tel.snapshot();
  EXPECT_EQ(C.SupplyMemoMisses, Full + 2);
  EXPECT_EQ(C.SupplyMemoHits, 1u);
}

TEST(RosslSupply, SbfAtInfinityReturns) {
  // The bisection's midpoint must not wrap when Hi − Lo = 2^64 − 1:
  // timeToSupply(W) ≤ TimeInfinity for every W, so SBF(∞) = ∞.
  RosslSupply S = makeSupply();
  EXPECT_EQ(S.supplyBound(TimeInfinity), TimeInfinity);
  // Finite Δ keep their values: SBF(Δ) is the largest W whose inverse
  // fits in Δ, and past the cap (10^6) no more supply is promised.
  const std::pair<Duration, Duration> Pinned[] = {
      {1, 0},           {3, 0},
      {999, 928},       {1000, 928},
      {12345, 11953},   {999999, 971956},
      {1000000, 971956}, {1000001, 971956},
      {TimeInfinity - 1, 971956}};
  for (auto [D, Sbf] : Pinned) {
    EXPECT_EQ(S.supplyBound(D), Sbf) << "Delta=" << D;
    EXPECT_LE(S.timeToSupply(Sbf), D) << "Delta=" << D;
    EXPECT_GT(S.timeToSupply(Sbf + 1), D) << "Delta=" << D;
  }
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

namespace {

/// The supply inverse without a memo, a seed or a shared job count:
/// t ← W + TRB(t) + NRB(t) from W, capped as the analyses cap.
Time referenceTimeToSupply(const RosslSupply &S, Duration W, Time Cap) {
  if (W == 0)
    return 0;
  Time T = W;
  while (true) {
    Time Next = satAdd(W, satAdd(S.trb(T), S.nrb(T)));
    if (exceedsCap(Next, Cap))
      return TimeInfinity;
    if (Next == T)
      return T;
    T = Next;
  }
}

/// A random release set of 1–32 periodic, leaky-bucket and jitter
/// curves.
std::vector<ArrivalCurvePtr> randomAlphas(SplitMix64 &Rng) {
  std::vector<ArrivalCurvePtr> Alphas;
  for (std::uint64_t N = Rng.nextInRange(1, 32); N > 0; --N) {
    Duration Period = Rng.nextInRange(1, 20000);
    switch (Rng.nextInRange(0, 2)) {
    case 0:
      Alphas.push_back(std::make_shared<PeriodicCurve>(Period));
      break;
    case 1:
      Alphas.push_back(
          std::make_shared<LeakyBucketCurve>(Rng.nextInRange(1, 4), Period));
      break;
    default:
      Alphas.push_back(std::make_shared<PeriodicJitterCurve>(
          Period, Rng.nextInRange(0, Period)));
      break;
    }
  }
  return Alphas;
}

/// Overhead bounds from small WCETs, or with probability 1/8 an RB so
/// large that NJobs · RB saturates satMul.
OverheadBounds randomBounds(SplitMix64 &Rng) {
  BasicActionWcets W;
  W.FailedRead = Rng.nextInRange(1, 20);
  W.SuccessfulRead = Rng.nextInRange(1, 40);
  W.Selection = Rng.nextInRange(1, 20);
  W.Dispatch = Rng.nextInRange(1, 20);
  W.Completion = Rng.nextInRange(1, 20);
  W.Idling = Rng.nextInRange(1, 20);
  OverheadBounds B =
      OverheadBounds::compute(W, std::uint32_t(Rng.nextInRange(1, 8)));
  if (Rng.nextBernoulli(1, 8))
    B.RB = TimeInfinity / Rng.nextInRange(1, 64);
  return B;
}

/// \p N demands in random order, some repeated, some zero, some beyond
/// any supply below the cap.
std::vector<Duration> randomDemands(SplitMix64 &Rng, std::size_t N,
                                    Time Cap) {
  std::vector<Duration> Ws;
  for (std::size_t K = 0; K < N; ++K) {
    switch (Rng.nextInRange(0, 9)) {
    case 0:
      Ws.push_back(Ws.empty() ? 0 : Ws[Rng.nextInRange(0, Ws.size() - 1)]);
      break;
    case 1:
      Ws.push_back(Rng.nextInRange(0, TimeInfinity));
      break;
    default:
      Ws.push_back(Rng.nextInRange(0, Cap));
      break;
    }
  }
  return Ws;
}

} // namespace

TEST(RosslSupply, TimeToSupplyMatchesAMemoFreeOracle) {
  // The memo, its warm seeds, its capacity and the one NJobs count per
  // step against the plain fixpoint, on random release sets.
  const std::uint64_t Seed = fuzzSeed(20261018);
  SplitMix64 Rng(Seed);
  std::size_t Finite = 0, Infinite = 0;
  for (int Sys = 0; Sys < 60; ++Sys) {
    std::vector<ArrivalCurvePtr> Alphas = randomAlphas(Rng);
    OverheadBounds B = randomBounds(Rng);
    Time Cap = Rng.nextInRange(1000, 10000000);
    RosslSupply S(releases(Alphas, maxReleaseJitter(B), Cap), B, Cap,
                  /*CarryInPerTask=*/!Rng.nextBernoulli(1, 8));
    const bool Warm = Rng.nextBernoulli(1, 2);
    S.setWarmSeeding(Warm);
    for (Duration W : randomDemands(Rng, 400, Cap)) {
      Time Expected = referenceTimeToSupply(S, W, Cap);
      (Expected == TimeInfinity ? Infinite : Finite) += W > 0;
      ASSERT_EQ(S.timeToSupply(W), Expected)
          << "system " << Sys << ", W=" << W << ", warm " << Warm
          << "; replay: RPROSA_FUZZ_SEED=" << Seed;
    }
  }
  // Both kinds of answer were compared in bulk.
  EXPECT_GT(Finite, 2000u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
  EXPECT_GT(Infinite, 2000u) << "replay: RPROSA_FUZZ_SEED=" << Seed;

  // A full memo: the answers past its capacity, ∞ ones included (the
  // warm ∞ shortcut among them), still match. The demands are
  // distinct, and every answer is stored while there is room, so the
  // memo is full after the first MemoCapacity of them.
  for (bool Warm : {false, true}) {
    OverheadBounds B = OverheadBounds::compute(tinyWcets(), 2);
    const Time Cap = 200000;
    RosslSupply S(releases({std::make_shared<PeriodicCurve>(100),
                            std::make_shared<LeakyBucketCurve>(2, 700)},
                           maxReleaseJitter(B), Cap),
                  B, Cap);
    S.setWarmSeeding(Warm);
    std::vector<Duration> Ws;
    for (Duration W = 1; W <= RosslSupply::MemoCapacity + 2000; ++W)
      Ws.push_back(W * 7);
    for (std::size_t K = Ws.size() - 1; K > 0; --K)
      std::swap(Ws[K], Ws[Rng.nextInRange(0, K)]);
    // Past the capacity: ∞ answers, and those a warm memo answers by
    // the shortcut (some stored W' < W has an ∞ answer; by
    // monotonicity so does the nearest stored one).
    std::size_t InfinitePast = 0, ShortcutPast = 0;
    Duration LeastStoredInfinite = TimeInfinity;
    for (std::size_t K = 0; K < Ws.size(); ++K) {
      const Duration W = Ws[K];
      Time Expected = referenceTimeToSupply(S, W, Cap);
      if (K < RosslSupply::MemoCapacity) {
        if (Expected == TimeInfinity)
          LeastStoredInfinite = std::min(LeastStoredInfinite, W);
      } else if (Expected == TimeInfinity) {
        ++InfinitePast;
        ShortcutPast += W > LeastStoredInfinite;
      }
      ASSERT_EQ(S.timeToSupply(W), Expected)
          << "W=" << W << ", warm " << Warm
          << "; replay: RPROSA_FUZZ_SEED=" << Seed;
    }
    EXPECT_GT(InfinitePast, 50u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
    EXPECT_GT(ShortcutPast, 50u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
    for (Duration W : {Ws.front(), Ws.back(), Duration(TimeInfinity)})
      ASSERT_EQ(S.timeToSupply(W), referenceTimeToSupply(S, W, Cap))
          << "W=" << W << ", warm " << Warm
          << "; replay: RPROSA_FUZZ_SEED=" << Seed;
  }
}

TEST(RosslSupply, SharedAcrossThreadsMatchesASerialSupply) {
  // Four threads query one supply in their own orders, as the
  // sbf_curves bench shares one; every answer must be the serial one.
  // Enough distinct demands to fill the memo past its capacity.
  const std::uint64_t Seed = fuzzSeed(20261018);
  SplitMix64 Rng(Seed);
  std::vector<ArrivalCurvePtr> Alphas = randomAlphas(Rng);
  OverheadBounds B = OverheadBounds::compute(tinyWcets(), 4);
  const Time Cap = 1000000;
  auto Releases = releases(Alphas, maxReleaseJitter(B), Cap);
  RosslSupply Shared(Releases, B, Cap), Serial(Releases, B, Cap);
  Shared.setWarmSeeding(true);
  Serial.setWarmSeeding(true);

  std::vector<Duration> Ws;
  for (std::size_t K = 0; K < RosslSupply::MemoCapacity + 1000; ++K)
    Ws.push_back(Rng.nextInRange(0, Cap));
  std::vector<Time> Expected;
  for (Duration W : Ws)
    Expected.push_back(Serial.timeToSupply(W));

  constexpr unsigned Threads = 4;
  std::vector<std::vector<std::size_t>> Orders(Threads);
  for (std::vector<std::size_t> &O : Orders) {
    for (std::size_t K = 0; K < Ws.size(); ++K)
      O.push_back(K);
    for (std::size_t K = O.size() - 1; K > 0; --K)
      std::swap(O[K], O[Rng.nextInRange(0, K)]);
  }
  std::vector<std::vector<Time>> Got(Threads,
                                     std::vector<Time>(Ws.size()));
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (std::size_t K : Orders[T])
        Got[T][K] = Shared.timeToSupply(Ws[K]);
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T < Threads; ++T)
    for (std::size_t K = 0; K < Ws.size(); ++K)
      ASSERT_EQ(Got[T][K], Expected[K])
          << "thread " << T << ", W=" << Ws[K]
          << "; replay: RPROSA_FUZZ_SEED=" << Seed;
}
