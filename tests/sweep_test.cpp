//===- tests/sweep_test.cpp - The parallel sweep engine -------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of rta/sweep.h, asserted literally: a sweep
/// on T threads returns results byte-identical (through the canonical
/// JSON rendering) to the same sweep on one thread, and its telemetry
/// counts what one run did.
///
//===----------------------------------------------------------------------===//

#include "rta/sweep.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// A grid over the stock task-set fixtures: policies × socket counts ×
/// configs, all pure-RTA points.
std::vector<SweepPoint> fixtureGrid() {
  std::vector<SweepPoint> Points;
  for (const TaskSet &TS : {figure3Tasks(), mixedTasks()}) {
    for (std::uint32_t Socks : {1u, 2u, 8u}) {
      for (SchedPolicy P : {SchedPolicy::Npfp, SchedPolicy::Fifo}) {
        SweepPoint Pt;
        Pt.Tasks = TS;
        Pt.Cfg.FixedPointCap = 1 * TickSec;
        Pt.Sbf.Wcets = tinyWcets();
        Pt.Sbf.NumSockets = Socks;
        Pt.Policy = P;
        Points.push_back(std::move(Pt));
      }
    }
  }
  return Points;
}

std::string runGridJson(unsigned Threads) {
  SweepOptions Opts;
  Opts.Threads = Threads;
  SweepRunner Runner(Opts);
  std::vector<SweepPoint> Points = fixtureGrid();
  return sweepResultsJson(Points, Runner.run(Points));
}

/// Asserts every counter of two telemetry snapshots is equal.
void expectSameCounters(const SweepTelemetry &A, const SweepTelemetry &B) {
  EXPECT_EQ(A.Cache.Hits, B.Cache.Hits);
  EXPECT_EQ(A.Cache.Misses, B.Cache.Misses);
  EXPECT_EQ(A.Fixpoints.Fixpoints, B.Fixpoints.Fixpoints);
  EXPECT_EQ(A.Fixpoints.Iterations, B.Fixpoints.Iterations);
  EXPECT_EQ(A.Fixpoints.SupplyIterations, B.Fixpoints.SupplyIterations);
  EXPECT_EQ(A.Fixpoints.Seeded, B.Fixpoints.Seeded);
  EXPECT_EQ(A.Fixpoints.SupplyMemoHits, B.Fixpoints.SupplyMemoHits);
  EXPECT_EQ(A.Fixpoints.SupplyMemoMisses, B.Fixpoints.SupplyMemoMisses);
  EXPECT_EQ(A.ChunkSize, B.ChunkSize);
}

} // namespace

TEST(SweepRunner, MatchesDirectAnalysisPointwise) {
  std::vector<SweepPoint> Points = fixtureGrid();
  SweepRunner Runner;
  std::vector<RtaResult> Results = Runner.run(Points);
  ASSERT_EQ(Results.size(), Points.size());
  for (std::size_t I = 0; I < Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    RtaResult Direct = analyzePolicy(P.Tasks, P.Sbf.Wcets,
                                     P.Sbf.NumSockets, P.Policy, P.Cfg);
    ASSERT_EQ(Results[I].PerTask.size(), Direct.PerTask.size());
    for (std::size_t K = 0; K < Direct.PerTask.size(); ++K) {
      EXPECT_EQ(Results[I].PerTask[K].Bounded, Direct.PerTask[K].Bounded);
      EXPECT_EQ(Results[I].PerTask[K].ResponseBound,
                Direct.PerTask[K].ResponseBound);
      EXPECT_EQ(Results[I].PerTask[K].BusyWindow,
                Direct.PerTask[K].BusyWindow);
    }
  }
}

TEST(SweepRunner, SerialAndParallelJsonAreByteIdentical) {
  std::string Serial = runGridJson(1);
  for (unsigned Threads : {2u, 4u, 8u})
    EXPECT_EQ(Serial, runGridJson(Threads)) << Threads << " threads";
}

TEST(SweepRunner, RepeatRunsOnOneRunnerAreStable) {
  SweepRunner Runner;
  std::vector<SweepPoint> Points = fixtureGrid();
  std::string First = sweepResultsJson(Points, Runner.run(Points));
  EXPECT_EQ(First, sweepResultsJson(Points, Runner.run(Points)));
}

TEST(SweepRunner, ResetTelemetryClearsEveryCounter) {
  // telemetry() counts what happened since the last resetTelemetry():
  // run, reset, run must report exactly what a fresh runner reports
  // after one run.
  std::vector<SweepPoint> Points = fixtureGrid();
  SweepOptions Opts;
  Opts.Threads = 2;
  SweepRunner Fresh(Opts);
  Fresh.run(Points);
  SweepTelemetry Once = Fresh.telemetry();
  ASSERT_GT(Once.Cache.Hits, 0u);
  ASSERT_GT(Once.Cache.Misses, 0u);

  SweepRunner Reused(Opts);
  Reused.run(Points);
  Reused.resetTelemetry();
  Reused.run(Points);
  expectSameCounters(Reused.telemetry(), Once);
}

TEST(SweepRunner, TelemetryCountersIgnoreTheThreadCount) {
  // Each point's analysis owns its supply, and the warm-start plan
  // depends only on the chunk size: with the chunk fixed, every
  // counter is the same on any number of threads.
  std::vector<SweepPoint> Points = fixtureGrid();
  auto CountersAt = [&](unsigned Threads) {
    SweepOptions Opts;
    Opts.Threads = Threads;
    Opts.ChunkSize = 3;
    SweepRunner Runner(Opts);
    Runner.run(Points);
    return Runner.telemetry();
  };
  SweepTelemetry Serial = CountersAt(1);
  EXPECT_EQ(Serial.Cache.Hits, Serial.Fixpoints.SupplyMemoHits);
  EXPECT_EQ(Serial.Cache.Misses, Serial.Fixpoints.SupplyMemoMisses);
  expectSameCounters(CountersAt(4), Serial);
}

TEST(SweepRunner, SchedulableVectorMatchesAllBounded) {
  std::vector<SweepPoint> Points = fixtureGrid();
  SweepRunner Runner;
  std::vector<RtaResult> Results = Runner.run(Points);
  std::vector<char> Ok = Runner.runSchedulable(Points);
  ASSERT_EQ(Ok.size(), Results.size());
  for (std::size_t I = 0; I < Ok.size(); ++I)
    EXPECT_EQ(static_cast<bool>(Ok[I]), Results[I].allBounded());
}

TEST(SweepRunner, EmptyBatch) {
  SweepRunner Runner;
  EXPECT_TRUE(Runner.run({}).empty());
  EXPECT_EQ(sweepResultsJson({}, {}), "[\n]\n");
}

//===----------------------------------------------------------------------===//
// The K-section sensitivity searches: a multi-threaded runner must
// return exactly what the serial binary search returns (the boundary is
// unique under antitone schedulability).
//===----------------------------------------------------------------------===//

#include "rta/sensitivity.h"

TEST(SensitivityOnRunner, KSectionMatchesSerialBinarySearch) {
  TaskSet TS = mixedTasks();
  BasicActionWcets W = tinyWcets();

  SweepOptions Par;
  Par.Threads = 4;
  SweepRunner Parallel(Par);

  for (SchedPolicy P : {SchedPolicy::Npfp, SchedPolicy::Fifo}) {
    SensitivityResult Serial = schedulerWcetSlack(TS, W, 2, P);
    SensitivityResult Multi = schedulerWcetSlack(Parallel, TS, W, 2, P);
    EXPECT_EQ(Serial.NominalSchedulable, Multi.NominalSchedulable)
        << toString(P);
    EXPECT_EQ(Serial.MaxScalePercent, Multi.MaxScalePercent)
        << toString(P);
  }

  for (TaskId I = 0; I < TS.size(); ++I) {
    SensitivityResult Serial = callbackWcetSlack(TS, W, 2, I);
    SensitivityResult Multi = callbackWcetSlack(Parallel, TS, W, 2, I);
    EXPECT_EQ(Serial.MaxScalePercent, Multi.MaxScalePercent)
        << "task " << I;
  }

  EXPECT_EQ(socketSlack(TS, W, 512), socketSlack(Parallel, TS, W, 512));
}
