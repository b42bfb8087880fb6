//===- tests/warm_start_test.cpp - Warm-started fixpoints -----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soundness contract of rta/warm_start.h, asserted literally: a
/// warm-started sweep returns results *byte-identical* (through the
/// canonical JSON rendering) to a cold sweep — seeding may only save
/// iterations, never change a least fixed point. This test is the CI
/// guard for that property on a seeded random grid; it fails the build
/// if warm and cold outputs ever diverge by a single byte.
///
//===----------------------------------------------------------------------===//

#include "rta/warm_start.h"

#include "rta/arsa.h"
#include "rta/sweep.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <random>

using namespace rprosa;
using namespace rprosa::testutil;

//===----------------------------------------------------------------------===//
// leastFixedPointSeeded
//===----------------------------------------------------------------------===//

TEST(LeastFixedPointSeeded, ColdSeedMatchesLeastFixedPoint) {
  // F(T) = 10 + ⌊9T/10⌋ is monotone with lfp 91 (from any Start ≤ 91: F(91) = 10 + ⌊819/10⌋ = 91).
  auto F = [](Time T) { return 10 + (T * 9) / 10; };
  std::optional<Time> Cold = leastFixedPointSeeded(F, 1, 0, 1000000);
  ASSERT_TRUE(Cold.has_value());
  EXPECT_EQ(*Cold, 91u);
  // Seed 0 is the cold start: the iteration begins at Start.
  std::optional<Time> AtStart = leastFixedPointSeeded(F, 1, 1, 1000000);
  ASSERT_TRUE(AtStart.has_value());
  EXPECT_EQ(*AtStart, *Cold);
}

TEST(LeastFixedPointSeeded, AnySoundSeedReachesTheSameFixpoint) {
  auto F = [](Time T) { return 10 + (T * 9) / 10; };
  std::uint64_t ColdIters = 0;
  ASSERT_EQ(leastFixedPointSeeded(F, 1, 0, 1000000, &ColdIters).value(),
            91u);
  for (Time Seed = 0; Seed <= 91; ++Seed) {
    std::uint64_t Iters = 0;
    std::optional<Time> R =
        leastFixedPointSeeded(F, 1, Seed, 1000000, &Iters);
    ASSERT_TRUE(R.has_value()) << "seed " << Seed;
    EXPECT_EQ(*R, 91u) << "seed " << Seed;
    EXPECT_LE(Iters, ColdIters) << "seed " << Seed;
  }
  // Seeding exactly at the fixpoint verifies it in a single step.
  std::uint64_t OneIter = 0;
  ASSERT_EQ(leastFixedPointSeeded(F, 1, 91, 1000000, &OneIter).value(),
            91u);
  EXPECT_EQ(OneIter, 1u);
}

TEST(LeastFixedPointSeeded, DivergenceStillCapsOut) {
  auto F = [](Time T) { return T + 7; };
  std::uint64_t Iters = 0;
  EXPECT_FALSE(leastFixedPointSeeded(F, 1, 0, 1000, &Iters).has_value());
  EXPECT_GT(Iters, 0u);
  // A large (still sound for an unbounded problem) seed caps out too,
  // in fewer steps.
  std::uint64_t WarmIters = 0;
  EXPECT_FALSE(leastFixedPointSeeded(F, 1, 900, 1000, &WarmIters)
                   .has_value());
  EXPECT_LT(WarmIters, Iters);
}

//===----------------------------------------------------------------------===//
// warmStartFrom
//===----------------------------------------------------------------------===//

TEST(WarmStartFrom, ExtractsBoundedBusyWindowsOnly) {
  RtaResult R;
  TaskRta A;
  A.Task = 0;
  A.Bounded = true;
  A.BusyWindow = 321;
  TaskRta B;
  B.Task = 1;
  B.Bounded = false; // Unbounded: proves nothing, must seed 0.
  B.BusyWindow = 999;
  R.PerTask = {A, B};

  WarmStart W = warmStartFrom(R);
  EXPECT_FALSE(W.empty());
  EXPECT_EQ(W.busyWindowSeed(0), 321u);
  EXPECT_EQ(W.busyWindowSeed(1), 0u);
  EXPECT_EQ(W.busyWindowSeed(2), 0u); // Out of range: cold.
}

//===----------------------------------------------------------------------===//
// SweepRunner::canSeed
//===----------------------------------------------------------------------===//

namespace {

SweepPoint basePoint() {
  SweepPoint P;
  P.Tasks = mixedTasks();
  P.Cfg.FixedPointCap = 1 * TickSec;
  P.Sbf.Wcets = tinyWcets();
  P.Sbf.NumSockets = 2;
  P.Policy = SchedPolicy::Npfp;
  return P;
}

/// A copy of \p P whose task set shares the curve objects (the sweep
/// generators' natural shape — TaskSet copies share curve pointers).
SweepPoint likePoint(const SweepPoint &P) { return P; }

} // namespace

TEST(CanSeed, AcceptsIdenticalAndDominatedPoints) {
  SweepPoint A = basePoint();
  EXPECT_TRUE(SweepRunner::canSeed(A, likePoint(A)));

  // Fieldwise ≤ demand parameters: still seedable.
  SweepPoint Bigger = likePoint(A);
  Bigger.Sbf.NumSockets = 4;
  Bigger.Sbf.Wcets.Dispatch += 3;
  EXPECT_TRUE(SweepRunner::canSeed(A, Bigger));
  EXPECT_FALSE(SweepRunner::canSeed(Bigger, A)); // Not the other way.

  // Acceleration/observability config fields are ignored.
  SweepPoint Accel = likePoint(A);
  Accel.Cfg.WarmIntraPoint = !A.Cfg.WarmIntraPoint;
  EXPECT_TRUE(SweepRunner::canSeed(A, Accel));
}

TEST(CanSeed, RejectsSemanticDifferences) {
  SweepPoint A = basePoint();

  SweepPoint Policy = likePoint(A);
  Policy.Policy = SchedPolicy::Fifo;
  EXPECT_FALSE(SweepRunner::canSeed(A, Policy));

  SweepPoint Cap = likePoint(A);
  Cap.Cfg.FixedPointCap += 1;
  EXPECT_FALSE(SweepRunner::canSeed(A, Cap));

  SweepPoint Ablate = likePoint(A);
  Ablate.Cfg.AblateCarryIn = true;
  EXPECT_FALSE(SweepRunner::canSeed(A, Ablate));

  // A *larger* task WCET in From means From's demand dominates: refuse.
  SweepPoint Wcet = likePoint(A);
  Wcet.Tasks = TaskSet();
  for (const Task &T : A.Tasks.tasks())
    Wcet.Tasks.addTask(T.Name, T.Wcet + 1, T.Prio, T.Curve, T.Deadline);
  EXPECT_FALSE(SweepRunner::canSeed(Wcet, A));
  EXPECT_TRUE(SweepRunner::canSeed(A, Wcet));

  // Same curve *shape* but a different object: identity is the rule.
  SweepPoint OtherCurve = likePoint(A);
  OtherCurve.Tasks = TaskSet();
  for (const Task &T : A.Tasks.tasks())
    OtherCurve.Tasks.addTask(T.Name, T.Wcet, T.Prio,
                             std::make_shared<PeriodicCurve>(500),
                             T.Deadline);
  EXPECT_FALSE(SweepRunner::canSeed(A, OtherCurve));

  // Deadlines must match exactly (EDF demand is antitone in the
  // interferer's deadline, so ≤ would be unsound).
  SweepPoint Deadline = likePoint(A);
  Deadline.Tasks = TaskSet();
  for (const Task &T : A.Tasks.tasks())
    Deadline.Tasks.addTask(T.Name, T.Wcet, T.Prio, T.Curve,
                           T.Deadline + 100);
  EXPECT_FALSE(SweepRunner::canSeed(A, Deadline));
}

//===----------------------------------------------------------------------===//
// The byte-identity guard: warm == cold on a seeded random grid.
//===----------------------------------------------------------------------===//

namespace {

/// A randomized grid in the shape real sweeps have: shared curve
/// objects, WCETs and socket counts perturbed per point, mixed
/// policies. Mostly monotone runs (so warm starts actually engage) with
/// random discontinuities (so the canSeed rejections are exercised).
std::vector<SweepPoint> seededRandomGrid(std::uint64_t Seed,
                                         std::size_t N) {
  std::mt19937_64 Rng(Seed);
  TaskSet Base = mixedTasks();
  TaskSet EdfBase;
  for (const Task &T : Base.tasks())
    EdfBase.addTask(T.Name, T.Wcet, T.Prio, T.Curve,
                    /*Deadline=*/2000 + 100 * T.Id);

  std::vector<SweepPoint> Points;
  std::uniform_int_distribution<int> Jump(0, 9);
  std::uniform_int_distribution<std::uint32_t> Socks(1, 4);
  std::uniform_int_distribution<Duration> Bump(0, 5);
  Duration Drift = 0;
  for (std::size_t I = 0; I < N; ++I) {
    if (Jump(Rng) == 0)
      Drift = 0; // Discontinuity: the next point is not dominated.
    SweepPoint P;
    bool Edf = Jump(Rng) < 2;
    const TaskSet &From = Edf ? EdfBase : Base;
    for (const Task &T : From.tasks())
      P.Tasks.addTask(T.Name, T.Wcet + Drift, T.Prio, T.Curve, T.Deadline);
    P.Cfg.FixedPointCap = 1 * TickSec;
    P.Sbf.Wcets = tinyWcets();
    P.Sbf.NumSockets = Socks(Rng);
    P.Policy = Edf ? SchedPolicy::Edf
                   : (Jump(Rng) < 5 ? SchedPolicy::Npfp : SchedPolicy::Fifo);
    Points.push_back(std::move(P));
    Drift += Bump(Rng);
  }
  return Points;
}

std::string runJson(const std::vector<SweepPoint> &Points, unsigned Threads,
                    bool Warm, FixpointCounts *CountsOut = nullptr) {
  SweepOptions Opts;
  Opts.Threads = Threads;
  Opts.WarmStarts = Warm;
  SweepRunner Runner(Opts);
  std::string Out = sweepResultsJson(Points, Runner.run(Points));
  if (CountsOut)
    *CountsOut = Runner.telemetry().Fixpoints;
  return Out;
}

} // namespace

TEST(WarmStartGuard, WarmEqualsColdByteIdentical) {
  std::uint64_t Seed = fuzzSeed(20260808);
  std::vector<SweepPoint> Points = seededRandomGrid(Seed, 64);

  FixpointCounts ColdCounts, WarmCounts;
  std::string Cold = runJson(Points, 1, /*Warm=*/false, &ColdCounts);
  std::string Warm = runJson(Points, 1, /*Warm=*/true, &WarmCounts);
  ASSERT_EQ(Cold, Warm) << "warm-started sweep diverged from cold "
                           "(seed " << Seed << ")";

  // The grid is mostly monotone, so cross-point seeding must actually
  // engage (intra-point seeding runs in both, so Cold's count is not
  // zero) — and it may only ever *save* iterations (both counts are
  // deterministic under one thread).
  EXPECT_GT(WarmCounts.Seeded, ColdCounts.Seeded);
  EXPECT_EQ(WarmCounts.Fixpoints, ColdCounts.Fixpoints);
  EXPECT_LT(WarmCounts.Iterations, ColdCounts.Iterations);

  // Thread counts and chunk sizes change nothing either.
  EXPECT_EQ(Cold, runJson(Points, 4, /*Warm=*/true));
  SweepOptions Chunky;
  Chunky.Threads = 3;
  Chunky.ChunkSize = 5;
  Chunky.WarmStarts = true;
  SweepRunner Runner(Chunky);
  EXPECT_EQ(Cold, sweepResultsJson(Points, Runner.run(Points)));
}

TEST(WarmStartGuard, TelemetryJsonWrapsThePlainRendering) {
  std::vector<SweepPoint> Points = seededRandomGrid(7, 8);
  SweepRunner Runner(SweepOptions{});
  std::vector<RtaResult> Results = Runner.run(Points);
  std::string Plain = sweepResultsJson(Points, Results);
  std::string Wrapped = sweepResultsJson(Points, Results,
                                         Runner.telemetry());
  // The plain form is embedded byte-for-byte (minus its newline).
  std::string Embedded = Plain.substr(0, Plain.size() - 1);
  EXPECT_NE(Wrapped.find(Embedded), std::string::npos);
  EXPECT_NE(Wrapped.find("\"telemetry\": {"), std::string::npos);
  EXPECT_NE(Wrapped.find("\"supply_memo_hits\": "), std::string::npos);
  EXPECT_NE(Wrapped.find("\"iterations\": "), std::string::npos);
  EXPECT_EQ(Wrapped.back(), '\n');
}

TEST(WarmStartGuard, DirectAnalysisWithExplicitSeedMatchesCold) {
  // Bypass the sweep: analyze a point cold, then re-analyze seeded from
  // its own solution (trivially sound: lfp seeds reach themselves) and
  // from a dominated neighbor.
  TaskSet Small = mixedTasks();
  TaskSet Large;
  for (const Task &T : Small.tasks())
    Large.addTask(T.Name, T.Wcet + 10, T.Prio, T.Curve, T.Deadline);

  BasicActionWcets W = tinyWcets();
  RtaConfig Cfg;
  Cfg.FixedPointCap = 1 * TickSec;
  for (SchedPolicy P :
       {SchedPolicy::Npfp, SchedPolicy::Fifo, SchedPolicy::Edf}) {
    RtaResult SmallCold = analyzePolicy(Small, W, 2, P, Cfg);
    RtaResult LargeCold = analyzePolicy(Large, W, 2, P, Cfg);

    WarmStart Seed = warmStartFrom(SmallCold);
    RtaConfig Warm = Cfg;
    Warm.Warm = &Seed;
    RtaResult LargeWarm = analyzePolicy(Large, W, 2, P, Warm);

    ASSERT_EQ(LargeWarm.PerTask.size(), LargeCold.PerTask.size());
    for (std::size_t I = 0; I < LargeCold.PerTask.size(); ++I) {
      EXPECT_EQ(LargeWarm.PerTask[I].Bounded, LargeCold.PerTask[I].Bounded);
      EXPECT_EQ(LargeWarm.PerTask[I].BusyWindow,
                LargeCold.PerTask[I].BusyWindow);
      EXPECT_EQ(LargeWarm.PerTask[I].ResponseBound,
                LargeCold.PerTask[I].ResponseBound);
    }
  }
}
