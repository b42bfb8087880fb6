//===- tests/warm_start_test.cpp - Warm-started fixpoints -----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soundness contract of rta/warm_start.h, asserted literally: a
/// sweep with intra-point seeding returns results *byte-identical*
/// (through the canonical JSON rendering) to a cold sweep — seeding may
/// only save iterations, never change a least fixed point. This test is
/// the CI guard for that property on a seeded random grid; it fails the
/// build if warm and cold outputs ever diverge by a single byte.
///
//===----------------------------------------------------------------------===//

#include "rta/warm_start.h"

#include "rta/sweep.h"

#include "test_util.h"

#include <gtest/gtest.h>

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
// The byte-identity guard: warm == cold on a seeded random grid.
//===----------------------------------------------------------------------===//

namespace {

/// \p Points with intra-point seeding switched to \p Warm.
std::vector<SweepPoint> withIntraPoint(std::vector<SweepPoint> Points,
                                       bool Warm) {
  for (SweepPoint &P : Points)
    P.Cfg.WarmIntraPoint = Warm;
  return Points;
}

std::string runJson(const std::vector<SweepPoint> &Points, unsigned Threads,
                    bool Warm, FixpointCounts *CountsOut = nullptr) {
  SweepOptions Opts;
  Opts.Threads = Threads;
  SweepRunner Runner(Opts);
  std::string Out =
      sweepResultsJson(Points, Runner.run(withIntraPoint(Points, Warm)));
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

  // Seeding must actually engage, and it may only ever *save*
  // iterations (both counts are deterministic).
  EXPECT_EQ(ColdCounts.Seeded, 0u);
  EXPECT_GT(WarmCounts.Seeded, 0u);
  EXPECT_EQ(WarmCounts.Fixpoints, ColdCounts.Fixpoints);
  EXPECT_LT(WarmCounts.Iterations, ColdCounts.Iterations);

  // Thread counts and chunk sizes change nothing either.
  EXPECT_EQ(Cold, runJson(Points, 4, /*Warm=*/true));
  SweepOptions Chunky;
  Chunky.Threads = 3;
  Chunky.ChunkSize = 5;
  SweepRunner Runner(Chunky);
  EXPECT_EQ(Cold, sweepResultsJson(
                      Points, Runner.run(withIntraPoint(Points, true))));
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
