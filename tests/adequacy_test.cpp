//===- tests/adequacy_test.cpp - The executable Thm. 5.1 property test ----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The headline property of the reproduction: across sockets, seeds,
/// workload styles and cost models, every adequacy run must satisfy the
/// assumptions, all trace/schedule invariants, and the Thm. 5.1
/// conclusion — every in-horizon job completes within t_arr + R_i + J_i.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"

#include "adequacy/report.h"
#include "rta/rta_policies.h"
#include "sim/workload.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

struct AdequacyCase {
  std::uint32_t Sockets;
  std::uint64_t Seed;
  WorkloadStyle Style;
  CostModelKind Cost;
};

class AdequacySweep : public ::testing::TestWithParam<AdequacyCase> {};

AdequacySpec makeSpec(const AdequacyCase &P) {
  AdequacySpec Spec;
  Spec.Client = makeClient(mixedTasks(), P.Sockets);
  WorkloadSpec WSpec;
  WSpec.NumSockets = P.Sockets;
  WSpec.Horizon = 5000;
  WSpec.Seed = P.Seed;
  WSpec.Style = P.Style;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WSpec);
  Spec.Cost = P.Cost;
  Spec.Seed = P.Seed;
  Spec.Limits.Horizon = 60000;
  return Spec;
}

} // namespace

TEST_P(AdequacySweep, Theorem51Holds) {
  AdequacyReport Rep = runAdequacy(makeSpec(GetParam()));
  EXPECT_TRUE(Rep.assumptionsHold()) << Rep.summary();
  EXPECT_TRUE(Rep.invariantsHold()) << Rep.summary();
  EXPECT_TRUE(Rep.conclusionHolds()) << Rep.summary();
  EXPECT_TRUE(Rep.theoremHolds());
  // The sweep would be vacuous if no job's deadline fit the horizon.
  std::size_t InHorizon = 0;
  for (const JobVerdict &V : Rep.Jobs)
    InHorizon += V.WithinHorizon;
  EXPECT_GT(InHorizon, 0u) << "no job was actually checked";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdequacySweep,
    ::testing::Values(
        AdequacyCase{1, 1, WorkloadStyle::Random, CostModelKind::AlwaysWcet},
        AdequacyCase{1, 2, WorkloadStyle::GreedyDense,
                     CostModelKind::AlwaysWcet},
        AdequacyCase{2, 3, WorkloadStyle::Random, CostModelKind::Uniform},
        AdequacyCase{2, 4, WorkloadStyle::GreedyDense,
                     CostModelKind::Uniform},
        AdequacyCase{2, 5, WorkloadStyle::Sparse, CostModelKind::HalfWcet},
        AdequacyCase{4, 6, WorkloadStyle::Random, CostModelKind::AlwaysWcet},
        AdequacyCase{4, 7, WorkloadStyle::GreedyDense,
                     CostModelKind::Uniform},
        AdequacyCase{8, 8, WorkloadStyle::Random, CostModelKind::HalfWcet}),
    [](const auto &Info) {
      return "s" + std::to_string(Info.param.Sockets) + "_seed" +
             std::to_string(Info.param.Seed);
    });

TEST(Adequacy, ViolatingCostModelVoidsAssumptions) {
  AdequacyCase P{2, 11, WorkloadStyle::Random,
                 CostModelKind::ViolatingOccasionally};
  AdequacyReport Rep = runAdequacy(makeSpec(P));
  // The fault-injecting cost model must be caught by the WCET check,
  // rendering the theorem vacuous (but not violated).
  EXPECT_FALSE(Rep.WcetOk.passed())
      << "fault injection escaped the WCET checker";
  EXPECT_FALSE(Rep.assumptionsHold());
  EXPECT_TRUE(Rep.theoremHolds()) << "vacuous truth expected";
}

TEST(Adequacy, NonCompliantWorkloadIsRejected) {
  AdequacySpec Spec;
  Spec.Client = makeClient(figure3Tasks(), 1);
  // Two tau1 jobs only 10 ticks apart violate the 1000-tick period.
  Spec.Arr = ArrivalSequence(1);
  Spec.Arr.addArrival(0, 0, 0);
  Spec.Arr.addArrival(10, 0, 0);
  Spec.Limits.Horizon = 10000;
  AdequacyReport Rep = runAdequacy(Spec);
  EXPECT_FALSE(Rep.ArrivalOk.passed());
  EXPECT_FALSE(Rep.assumptionsHold());
}

TEST(Adequacy, BrokenClientIsRejected) {
  AdequacySpec Spec;
  Spec.Client = makeClient(figure3Tasks(), 1);
  Spec.Client.Wcets.Selection = 0; // Violates Thm. 5.1 side condition.
  AdequacyReport Rep = runAdequacy(Spec);
  EXPECT_FALSE(Rep.StaticOk.passed());
}

TEST(Adequacy, ReportAggregatesPerTask) {
  AdequacyCase P{2, 3, WorkloadStyle::Random, CostModelKind::AlwaysWcet};
  AdequacySpec Spec = makeSpec(P);
  AdequacyReport Rep = runAdequacy(Spec);
  std::vector<TaskStats> Stats = aggregatePerTask(Rep, Spec.Client.Tasks);
  ASSERT_EQ(Stats.size(), Spec.Client.Tasks.size());
  std::uint64_t Total = 0;
  for (const TaskStats &S : Stats) {
    Total += S.Arrivals;
    EXPECT_EQ(S.Violations, 0u);
    if (S.Completed > 0 && S.Bound != TimeInfinity) {
      EXPECT_LE(S.MaxResponse, S.Bound);
    }
  }
  EXPECT_EQ(Total, Rep.Jobs.size());
  // Rendering does not crash and contains every task name.
  std::string Table = renderTaskTable(Rep, Spec.Client.Tasks);
  for (const Task &T : Spec.Client.Tasks.tasks())
    EXPECT_NE(Table.find(T.Name), std::string::npos);
}

TEST(Adequacy, SummaryMentionsOutcome) {
  AdequacyCase P{1, 1, WorkloadStyle::Random, CostModelKind::AlwaysWcet};
  AdequacyReport Rep = runAdequacy(makeSpec(P));
  std::string S = Rep.summary();
  EXPECT_NE(S.find("theorem 5.1: holds"), std::string::npos) << S;
  EXPECT_GT(Rep.totalChecks(), 100u);
}

TEST(Adequacy, TightnessIsReasonable) {
  // Guard against a vacuously loose analysis: on a single-task system
  // at always-WCET the bound should be within ~50x of the worst
  // observation (in practice it is far tighter; this is a smoke bound).
  AdequacySpec Spec;
  TaskSet TS;
  addPeriodicTask(TS, "t", 50, 1, 2000);
  Spec.Client = makeClient(std::move(TS), 1);
  WorkloadSpec WSpec;
  WSpec.Horizon = 20000;
  WSpec.Style = WorkloadStyle::GreedyDense;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WSpec);
  Spec.Limits.Horizon = 40000;
  AdequacyReport Rep = runAdequacy(Spec);
  ASSERT_TRUE(Rep.theoremHolds());
  std::vector<TaskStats> Stats = aggregatePerTask(Rep, Spec.Client.Tasks);
  ASSERT_EQ(Stats.size(), 1u);
  ASSERT_NE(Stats[0].Bound, TimeInfinity);
  ASSERT_GT(Stats[0].MaxResponse, 0u);
  EXPECT_LE(Stats[0].Bound, 50 * Stats[0].MaxResponse);
}

/// AdequacySpec::StaticTiming reaches the RTA under every policy: the
/// report's bounds are the policy's analysis over the derived inputs,
/// tagged with their source.
class StaticTimingPolicy : public ::testing::TestWithParam<SchedPolicy> {};

TEST_P(StaticTimingPolicy, RtaRunsFromTheDerivedInputs) {
  TaskSet TS;
  TS.addTask("fast", 40, 2, std::make_shared<PeriodicCurve>(1000), 900);
  TS.addTask("slow", 60, 1, std::make_shared<PeriodicCurve>(2000), 1800);
  AdequacySpec Spec;
  Spec.Client = makeClient(std::move(TS), 2);
  Spec.Client.Policy = GetParam();
  TimingInputs In;
  In.Wcets = Spec.Client.Wcets;
  In.Wcets.Selection += 2;
  In.CallbackWcets = {80, 120}; // Both callback WCETs doubled.
  In.Source = TimingSource::StaticAnalysis;
  Spec.StaticTiming = In;
  WorkloadSpec WSpec;
  WSpec.NumSockets = 2;
  WSpec.Horizon = 10000;
  WSpec.Style = WorkloadStyle::GreedyDense;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WSpec);
  Spec.Limits.Horizon = 20000;

  AdequacyReport Rep = runAdequacyStreaming(Spec);
  RtaResult Want = analyzePolicy(Spec.Client.Tasks, In,
                                 Spec.Client.NumSockets, GetParam());
  RtaResult Hand =
      analyzePolicy(Spec.Client.Tasks, Spec.Client.Wcets,
                    Spec.Client.NumSockets, GetParam());
  EXPECT_EQ(Rep.Rta.Source, TimingSource::StaticAnalysis);
  EXPECT_EQ(Rep.Rta.Bounds.SB, Want.Bounds.SB);
  ASSERT_EQ(Rep.Rta.PerTask.size(), Want.PerTask.size());
  for (const TaskRta &W : Want.PerTask) {
    const TaskRta &G = Rep.Rta.forTask(W.Task);
    ASSERT_TRUE(W.Bounded);
    EXPECT_EQ(G.Bounded, W.Bounded);
    EXPECT_EQ(G.ResponseBound, W.ResponseBound);
    EXPECT_EQ(G.ReleaseRelativeBound, W.ReleaseRelativeBound);
    EXPECT_EQ(G.Jitter, W.Jitter);
    EXPECT_EQ(G.BusyWindow, W.BusyWindow);
    EXPECT_EQ(G.Blocking, W.Blocking);
    // The derived inputs, not the hand tables, set the bound.
    EXPECT_GT(W.ResponseBound, Hand.forTask(W.Task).ResponseBound);
  }
  EXPECT_TRUE(Rep.theoremHolds());
}

INSTANTIATE_TEST_SUITE_P(Policies, StaticTimingPolicy,
                         ::testing::Values(SchedPolicy::Npfp,
                                           SchedPolicy::Edf,
                                           SchedPolicy::Fifo),
                         [](const auto &Info) {
                           std::string N = toString(Info.param);
                           N.erase(std::remove(N.begin(), N.end(), '-'),
                                   N.end());
                           return N;
                         });
