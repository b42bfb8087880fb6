//===- tests/curve_table_test.cpp - FlatCurveTable equivalence ------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The whole correctness contract of the flat kernels is one sentence:
// flat.eval(Delta) == curve.eval(Delta) for every Delta. This file
// asserts it over every curve shape in the library — dense grids around
// the compiled horizon, random grids up to 2x the horizon, and the
// saturation edge near UINT64_MAX where tail extrapolation must either
// stay exact or fall back to the source curve.
//
//===----------------------------------------------------------------------===//

#include "core/curve_table.h"

#include "rta/jitter.h"

#include <gtest/gtest.h>

#include <random>

using namespace rprosa;

namespace {

/// Asserts table == curve on a dense grid [0, DenseTo], a random grid
/// up to 2x the horizon, and the saturation edge.
void expectEquivalent(const ArrivalCurvePtr &Curve, Duration Horizon,
                      Duration DenseTo = 4096) {
  FlatCurveTable Flat(Curve, Horizon);
  ASSERT_EQ(Flat.source().get(), Curve.get());

  for (Duration D = 0; D <= DenseTo; ++D)
    ASSERT_EQ(Flat.eval(D), Curve->eval(D)) << Curve->describe()
                                            << " at dense Delta=" << D;

  // Random probes up to 2x the compiled horizon (fixed seed: the test
  // is deterministic).
  std::mt19937_64 Rng(0xC0FFEEull ^ Horizon);
  Duration Max = satMul(Horizon, 2);
  std::uniform_int_distribution<Duration> Dist(0, Max);
  for (int I = 0; I < 2000; ++I) {
    Duration D = Dist(Rng);
    ASSERT_EQ(Flat.eval(D), Curve->eval(D))
        << Curve->describe() << " at random Delta=" << D;
  }

  // A band straddling the covered/extrapolated boundary.
  Duration Cov = Flat.covered();
  for (Duration Off = 0; Off <= 64; ++Off) {
    Duration Lo = Cov > Off ? Cov - Off : 0;
    ASSERT_EQ(Flat.eval(Lo), Curve->eval(Lo)) << Curve->describe();
    Duration HiD = satAdd(Cov, Off);
    ASSERT_EQ(Flat.eval(HiD), Curve->eval(HiD)) << Curve->describe();
  }

  // The saturation edge: extrapolation by whole tail periods must stay
  // exact (wrapping arithmetic) or defer to the source past ValidTo.
  for (Duration D : {TimeInfinity, TimeInfinity - 1, TimeInfinity - 2,
                     TimeInfinity - 17, TimeInfinity / 2,
                     TimeInfinity / 2 + 1, TimeInfinity / 3})
    ASSERT_EQ(Flat.eval(D), Curve->eval(D))
        << Curve->describe() << " at edge Delta=" << D;
}

} // namespace

TEST(FlatCurveTable, PeriodicEquivalence) {
  expectEquivalent(std::make_shared<PeriodicCurve>(7), 1000);
  expectEquivalent(std::make_shared<PeriodicCurve>(1), 1000);
  expectEquivalent(std::make_shared<PeriodicCurve>(10 * TickMs),
                   100 * TickMs);
}

TEST(FlatCurveTable, LeakyBucketEquivalence) {
  expectEquivalent(std::make_shared<LeakyBucketCurve>(5, 3), 1000);
  expectEquivalent(std::make_shared<LeakyBucketCurve>(1, 1), 500);
  expectEquivalent(std::make_shared<LeakyBucketCurve>(12, 7 * TickUs),
                   10 * TickMs);
}

TEST(FlatCurveTable, StaircaseEquivalence) {
  std::vector<StaircaseCurve::Step> Steps = {{10, 2}, {50, 5}, {100, 7}};
  expectEquivalent(std::make_shared<StaircaseCurve>(Steps, 30), 1000);
  // Constant tail (TailPeriod = 0): flat forever after the last step.
  expectEquivalent(std::make_shared<StaircaseCurve>(Steps, 0), 1000);
}

TEST(FlatCurveTable, ShiftedEquivalence) {
  auto P = std::make_shared<PeriodicCurve>(9);
  expectEquivalent(std::make_shared<ShiftedCurve>(P, 13), 1000);
  expectEquivalent(std::make_shared<ShiftedCurve>(P, 0), 1000);
  // Large shifts push the inner evaluation toward its own saturation.
  expectEquivalent(std::make_shared<ShiftedCurve>(P, TimeInfinity / 2),
                   1000);
}

TEST(FlatCurveTable, PeriodicJitterEquivalence) {
  expectEquivalent(std::make_shared<PeriodicJitterCurve>(10, 4), 1000);
  expectEquivalent(std::make_shared<PeriodicJitterCurve>(3, 25), 1000);
}

TEST(FlatCurveTable, CombinatorEquivalence) {
  auto P7 = std::make_shared<PeriodicCurve>(7);
  auto L = std::make_shared<LeakyBucketCurve>(3, 5);
  std::vector<StaircaseCurve::Step> Steps = {{4, 1}, {40, 3}};
  auto St = std::make_shared<StaircaseCurve>(Steps, 11);

  expectEquivalent(std::make_shared<SumCurve>(
                       std::vector<ArrivalCurvePtr>{P7, L, St}),
                   1000);
  expectEquivalent(std::make_shared<ScaledCurve>(P7, 4), 1000);
  expectEquivalent(std::make_shared<MinCurve>(L, P7), 1000);
  // Nested: shifted sum of scaled parts — the worst case for the old
  // virtual-call chains, still one table here.
  auto Nested = std::make_shared<ShiftedCurve>(
      std::make_shared<SumCurve>(std::vector<ArrivalCurvePtr>{
          std::make_shared<ScaledCurve>(L, 2), P7}),
      6);
  expectEquivalent(Nested, 1000);
}

TEST(FlatCurveTable, ZeroCurveEquivalence) {
  expectEquivalent(std::make_shared<ZeroCurve>(), 1000);
}

TEST(FlatCurveTable, TailKeepsTablesSmall) {
  // A certified tail means only one period of breakpoints is compiled
  // no matter how large the horizon — the point of the exercise.
  auto P = std::make_shared<PeriodicCurve>(10);
  FlatCurveTable Flat(P, 100 * TickSec);
  EXPECT_TRUE(Flat.hasTail());
  EXPECT_LE(Flat.breakpoints(), 3u);
  EXPECT_LE(Flat.covered(), 20u);

  // MinCurve certifies no tail: the table covers the horizon instead
  // (or caps out at MaxBreakpoints and falls back to the source).
  auto M = std::make_shared<MinCurve>(std::make_shared<PeriodicCurve>(3),
                                      std::make_shared<LeakyBucketCurve>(7, 5));
  FlatCurveTable FlatM(M, 1000);
  EXPECT_FALSE(FlatM.hasTail());
  EXPECT_GE(FlatM.covered(), 1000u);
}

TEST(FlatCurveTable, DenseArrayForSmallRanges) {
  auto L = std::make_shared<LeakyBucketCurve>(2, 13);
  FlatCurveTable Flat(L, 1000);
  EXPECT_TRUE(Flat.dense());
  for (Duration D = 0; D <= Flat.covered(); ++D)
    ASSERT_EQ(Flat.eval(D), L->eval(D));
}

TEST(FlatReleaseSet, MatchesShiftedCurveSemantics) {
  // β_i(Δ) = α_i(Δ + J) with β_i(0) = 0 — bit-identical to evaluating
  // makeReleaseCurve(α_i, J), which is what the analyses used to do.
  std::vector<ArrivalCurvePtr> Alphas = {
      std::make_shared<PeriodicCurve>(7),
      std::make_shared<LeakyBucketCurve>(3, 5),
      std::make_shared<SumCurve>(std::vector<ArrivalCurvePtr>{
          std::make_shared<PeriodicCurve>(11),
          std::make_shared<PeriodicJitterCurve>(9, 2)})};
  for (Duration J : {Duration(0), Duration(5), Duration(123)}) {
    FlatReleaseSet Set(Alphas, J, 100000);
    ASSERT_EQ(Set.size(), Alphas.size());
    EXPECT_EQ(Set.shift(), J);
    std::mt19937_64 Rng(42 + J);
    std::uniform_int_distribution<Duration> Dist(0, 200000);
    for (std::size_t I = 0; I < Alphas.size(); ++I) {
      ArrivalCurvePtr Beta = makeReleaseCurve(Alphas[I], J);
      for (Duration D = 0; D <= 256; ++D)
        ASSERT_EQ(Set.evalRelease(I, D), Beta->eval(D))
            << "task " << I << " J=" << J << " Delta=" << D;
      for (int R = 0; R < 500; ++R) {
        Duration D = Dist(Rng);
        ASSERT_EQ(Set.evalRelease(I, D), Beta->eval(D))
            << "task " << I << " J=" << J << " Delta=" << D;
      }
      // The release-curve zero axiom and the saturation edge.
      ASSERT_EQ(Set.evalRelease(I, 0), 0u);
      ASSERT_EQ(Set.evalRelease(I, TimeInfinity),
                Beta->eval(TimeInfinity));
    }
  }
}

TEST(FlatReleaseView, ModelsTheMonotoneEvaluatorConcept) {
  std::vector<ArrivalCurvePtr> Alphas = {std::make_shared<PeriodicCurve>(10)};
  FlatReleaseSet Set(Alphas, 3, 100000);
  FlatReleaseView View(Set, 0);
  ArrivalCurvePtr Beta = makeReleaseCurve(Alphas[0], 3);
  // minWindowAdmittingIn over the view == minWindowAdmitting over the
  // equivalent release curve, for every count the RTA walks.
  for (std::uint64_t Q = 0; Q <= 50; ++Q)
    ASSERT_EQ(minWindowAdmittingIn(View, Q, Duration(1000000)),
              minWindowAdmitting(*Beta, Q, Duration(1000000)))
        << "Q=" << Q;
}
