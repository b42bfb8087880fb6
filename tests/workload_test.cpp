//===- tests/workload_test.cpp - Workload-generator property tests --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The central property: every generated workload *exactly* satisfies
/// Eq. 2 (ArrivalSequence::respectsCurves), across styles, seeds, and
/// curve shapes.
///
//===----------------------------------------------------------------------===//

#include "sim/workload.h"

#include "sag/state.h"
#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

struct WorkloadCase {
  WorkloadStyle Style;
  std::uint64_t Seed;
};

class WorkloadProperty : public ::testing::TestWithParam<WorkloadCase> {};

} // namespace

TEST_P(WorkloadProperty, GeneratedSequencesRespectCurves) {
  TaskSet TS = mixedTasks();
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 20000;
  Spec.Seed = GetParam().Seed;
  Spec.Style = GetParam().Style;
  ArrivalSequence Arr = generateWorkload(TS, Spec);
  EXPECT_TRUE(Arr.respectsCurves(TS).passed())
      << "style=" << int(Spec.Style) << " seed=" << Spec.Seed;
  EXPECT_TRUE(Arr.uniqueMsgIds().passed());
}

TEST_P(WorkloadProperty, ArrivalsStayInHorizon) {
  TaskSet TS = mixedTasks();
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 5000;
  Spec.Seed = GetParam().Seed;
  Spec.Style = GetParam().Style;
  ArrivalSequence Arr = generateWorkload(TS, Spec);
  for (const Arrival &A : Arr.arrivals())
    EXPECT_LT(A.At, Spec.Horizon);
}

INSTANTIATE_TEST_SUITE_P(
    StylesAndSeeds, WorkloadProperty,
    ::testing::Values(WorkloadCase{WorkloadStyle::Random, 1},
                      WorkloadCase{WorkloadStyle::Random, 2},
                      WorkloadCase{WorkloadStyle::Random, 99},
                      WorkloadCase{WorkloadStyle::GreedyDense, 1},
                      WorkloadCase{WorkloadStyle::GreedyDense, 7},
                      WorkloadCase{WorkloadStyle::Sparse, 1},
                      WorkloadCase{WorkloadStyle::Sparse, 42}),
    [](const auto &Info) {
      const char *Style =
          Info.param.Style == WorkloadStyle::Random
              ? "random"
              : (Info.param.Style == WorkloadStyle::GreedyDense ? "greedy"
                                                                : "sparse");
      return std::string(Style) + "_seed" +
             std::to_string(Info.param.Seed);
    });

TEST(Workload, GreedyDenseIsAtMaximumRate) {
  // A periodic task generated greedily must arrive exactly every period.
  TaskSet TS;
  addPeriodicTask(TS, "p", 10, 1, /*Period=*/100);
  WorkloadSpec Spec;
  Spec.Horizon = 1000;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(TS, Spec);
  const auto &A = Arr.arrivals();
  ASSERT_EQ(A.size(), 10u);
  for (std::size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].At, I * 100);
}

TEST(Workload, GreedyDenseEmitsFullBurstsAtOnce) {
  TaskSet TS;
  addBurstyTask(TS, "b", 10, 1, /*Burst=*/3, /*Rate=*/100);
  WorkloadSpec Spec;
  Spec.Horizon = 150;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(TS, Spec);
  // Three arrivals at t=0 (the burst), then one per rate.
  ASSERT_GE(Arr.arrivals().size(), 3u);
  EXPECT_EQ(Arr.arrivals()[0].At, 0u);
  EXPECT_EQ(Arr.arrivals()[1].At, 0u);
  EXPECT_EQ(Arr.arrivals()[2].At, 0u);
}

TEST(Workload, MaxArrivalsPerTaskCaps) {
  TaskSet TS;
  addPeriodicTask(TS, "p", 10, 1, 10);
  WorkloadSpec Spec;
  Spec.Horizon = 100000;
  Spec.Style = WorkloadStyle::GreedyDense;
  Spec.MaxArrivalsPerTask = 5;
  ArrivalSequence Arr = generateWorkload(TS, Spec);
  EXPECT_EQ(Arr.arrivals().size(), 5u);
}

TEST(Workload, TaskSocketMappingIsHonored) {
  TaskSet TS = mixedTasks();
  WorkloadSpec Spec;
  Spec.NumSockets = 3;
  Spec.Horizon = 3000;
  std::vector<SocketId> Map = {2, 0, 1};
  ArrivalSequence Arr = generateWorkload(TS, Map, Spec);
  for (const Arrival &A : Arr.arrivals())
    EXPECT_EQ(A.Socket, Map[A.Msg.Task]);
}

namespace {

/// A base curve that counts its evaluations and passes its regulator
/// form on: the linearity pins below count work without a clock.
class CountingCurve : public ArrivalCurve {
public:
  explicit CountingCurve(ArrivalCurvePtr Inner) : Inner(std::move(Inner)) {}

  std::uint64_t eval(Duration Delta) const override {
    ++Evals;
    return Inner->eval(Delta);
  }
  std::string describe() const override { return Inner->describe(); }
  std::optional<CurveRegulator> regulator() const override {
    return Inner->regulator();
  }

  mutable std::uint64_t Evals = 0;

private:
  ArrivalCurvePtr Inner;
};

struct LinearityCase {
  const char *Name;
  ArrivalCurvePtr Base;
};

std::vector<LinearityCase> baseCurves() {
  return {{"periodic", std::make_shared<PeriodicCurve>(100)},
          {"jitter", std::make_shared<PeriodicJitterCurve>(100, 30)},
          {"bucket", std::make_shared<LeakyBucketCurve>(3, 100)}};
}

} // namespace

// Eq. 2 in linear time: with a regulator form, generating 2,000
// arrivals costs only the few evaluations of the generator's minimum
// gap (a pairwise scan made tens of millions), and checking them costs
// none, while the check still counts every pair it decided.
TEST(WorkloadLinearity, GenerationAndCheckUseTheRegulator) {
  for (const LinearityCase &C : baseCurves()) {
    for (WorkloadStyle Style : {WorkloadStyle::Random,
                                WorkloadStyle::GreedyDense,
                                WorkloadStyle::Sparse}) {
      auto Curve = std::make_shared<CountingCurve>(C.Base);
      TaskSet TS;
      TS.addTask("t", 10, 1, Curve);
      WorkloadSpec Spec;
      Spec.Horizon = TimeInfinity - 1;
      Spec.Style = Style;
      Spec.MaxArrivalsPerTask = 2000;
      ArrivalSequence Arr = generateWorkload(TS, Spec);
      ASSERT_EQ(Arr.size(), 2000u) << C.Name << " style " << int(Style);
      EXPECT_LE(Curve->Evals, 48u) << C.Name << " style " << int(Style);

      Curve->Evals = 0;
      CheckResult R = Arr.respectsCurves(TS);
      EXPECT_TRUE(R.passed()) << C.Name << " style " << int(Style);
      EXPECT_EQ(Curve->Evals, 0u) << C.Name << " style " << int(Style);
      EXPECT_EQ(R.checksPerformed(), 2001000u)
          << C.Name << " style " << int(Style);
    }
  }
}

TEST(WorkloadLinearity, SagJobEnumerationUsesTheRegulator) {
  for (const LinearityCase &C : baseCurves()) {
    auto Curve = std::make_shared<CountingCurve>(C.Base);
    TaskSet TS;
    TS.addTask("t", 10, 1, Curve);
    SagConfig Cfg;
    Cfg.Horizon = 100 * 240;
    SagModel M =
        SagModel::build(TS, tinyWcets(), 1, SchedPolicy::Npfp, Cfg);
    EXPECT_GE(M.jobs().size(), 240u) << C.Name;
    EXPECT_EQ(Curve->Evals, 0u) << C.Name;
  }
}
