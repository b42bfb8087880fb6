//===- tests/fuzz_test.cpp - Randomized end-to-end property sweeps --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Randomized system generation through the whole pipeline: random task
/// sets (sizes, priorities, curve shapes, deadlines), random socket
/// counts and cost models — every run must satisfy the assumptions, the
/// invariants, and Thm. 5.1's conclusion; mutated traces must be caught
/// by at least one checker.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "rossl/scheduler.h"
#include "sim/workload.h"
#include "support/rng.h"
#include "trace/functional.h"
#include "trace/marker_specs.h"
#include "trace/protocol.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// A random task set with bounded utilization so the analysis stays
/// schedulable most of the time (unschedulable sets are fine too: the
/// theorem is vacuous for unbounded tasks).
TaskSet randomTasks(SplitMix64 &Rng) {
  TaskSet TS;
  std::size_t N = Rng.nextInRange(1, 5);
  for (std::size_t I = 0; I < N; ++I) {
    Duration Wcet = Rng.nextInRange(10, 80);
    Duration Period = Wcet * Rng.nextInRange(8, 40);
    Priority Prio = static_cast<Priority>(Rng.nextInRange(1, 4));
    Duration Deadline = Period / Rng.nextInRange(1, 4) + 1;
    ArrivalCurvePtr Curve;
    switch (Rng.nextInRange(0, 2)) {
    case 0:
      Curve = std::make_shared<PeriodicCurve>(Period);
      break;
    case 1:
      Curve = std::make_shared<LeakyBucketCurve>(Rng.nextInRange(1, 3),
                                                 Period);
      break;
    default:
      Curve = std::make_shared<PeriodicJitterCurve>(
          Period, Period / Rng.nextInRange(5, 20));
      break;
    }
    TS.addTask("t" + std::to_string(I), Wcet, Prio, std::move(Curve),
               Deadline);
  }
  return TS;
}

class RandomSystems : public ::testing::TestWithParam<std::uint64_t> {};

} // namespace

TEST_P(RandomSystems, FullPipelineInvariantsHold) {
  const std::uint64_t Base = fuzzSeed(0);
  SplitMix64 Rng(GetParam() * 7919 + 13 + Base);
  AdequacySpec Spec;
  Spec.Client.Tasks = randomTasks(Rng);
  Spec.Client.NumSockets =
      static_cast<std::uint32_t>(Rng.nextInRange(1, 6));
  Spec.Client.Wcets = tinyWcets();
  switch (Rng.nextInRange(0, 2)) {
  case 0:
    Spec.Client.Policy = SchedPolicy::Npfp;
    break;
  case 1:
    Spec.Client.Policy = SchedPolicy::Edf;
    break;
  default:
    Spec.Client.Policy = SchedPolicy::Fifo;
    break;
  }
  WorkloadSpec WSpec;
  WSpec.NumSockets = Spec.Client.NumSockets;
  WSpec.Horizon = 6000;
  WSpec.Seed = GetParam() + Base;
  WSpec.Style = Rng.nextBernoulli(1, 2) ? WorkloadStyle::Random
                                        : WorkloadStyle::GreedyDense;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WSpec);
  Spec.Cost = Rng.nextBernoulli(1, 2) ? CostModelKind::AlwaysWcet
                                      : CostModelKind::Uniform;
  Spec.Seed = GetParam() + Base;
  Spec.Limits.Horizon = 100000;

  std::string Replay = "param " + std::to_string(GetParam()) +
                       ", replay: RPROSA_FUZZ_SEED=" +
                       std::to_string(Base) + " (base seed)";
  AdequacyReport Rep = runAdequacy(Spec);
  EXPECT_TRUE(Rep.assumptionsHold()) << Replay << "\n" << Rep.summary();
  EXPECT_TRUE(Rep.invariantsHold()) << Replay << "\n" << Rep.summary();
  EXPECT_TRUE(Rep.conclusionHolds()) << Replay << "\n" << Rep.summary();
  // The §3.1 contracts agree with the other checkers on good traces.
  EXPECT_TRUE(checkMarkerSpecs(Rep.TT.Tr, Spec.Client.Tasks,
                               Spec.Client.Policy)
                  .passed())
      << Replay;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystems,
                         ::testing::Range<std::uint64_t>(1, 17));

namespace {

/// Applies a random structural mutation to the trace.
bool mutate(Trace &Tr, SplitMix64 &Rng) {
  if (Tr.size() < 8)
    return false;
  std::size_t I = Rng.nextInRange(0, Tr.size() - 2);
  switch (Rng.nextInRange(0, 2)) {
  case 0:
    std::swap(Tr[I], Tr[I + 1]);
    return Tr[I].Kind != Tr[I + 1].Kind;
  case 1:
    Tr.erase(Tr.begin() + static_cast<std::ptrdiff_t>(I));
    return true;
  default:
    Tr.insert(Tr.begin() + static_cast<std::ptrdiff_t>(I), Tr[I]);
    return true;
  }
}

} // namespace

TEST(FuzzMutation, CheckersCatchStructuralMutations) {
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 4000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  TimedTrace TT = runRossl(C, Arr, 7000);
  ASSERT_TRUE(checkProtocol(TT.Tr, 2).passed());

  const std::uint64_t Seed = fuzzSeed(99);
  SplitMix64 Rng(Seed);
  std::uint64_t Mutants = 0, Caught = 0;
  for (int K = 0; K < 300; ++K) {
    Trace M = TT.Tr;
    if (!mutate(M, Rng))
      continue;
    ++Mutants;
    bool Rejected = !checkProtocol(M, 2).passed() ||
                    !checkFunctionalCorrectness(M, C.Tasks).passed() ||
                    !checkMarkerSpecs(M, C.Tasks).passed();
    Caught += Rejected;
  }
  ASSERT_GT(Mutants, 100u);
  // Structural mutations of marker kinds are essentially always
  // protocol violations; allow a small semantic-no-op margin.
  EXPECT_GE(Caught * 100, Mutants * 95)
      << Caught << "/" << Mutants
      << " mutants caught; replay: RPROSA_FUZZ_SEED=" << Seed;
}

TEST(FuzzCurves, RandomCurveStacksStayConsistent) {
  // Random compositions of combinators keep the curve axioms and agree
  // with minWindowAdmitting.
  const std::uint64_t Seed = fuzzSeed(4242);
  SplitMix64 Rng(Seed);
  for (int K = 0; K < 40; ++K) {
    ArrivalCurvePtr C = std::make_shared<PeriodicCurve>(
        Rng.nextInRange(5, 500));
    for (int D = 0; D < 3; ++D) {
      switch (Rng.nextInRange(0, 3)) {
      case 0:
        C = std::make_shared<ShiftedCurve>(C, Rng.nextInRange(0, 100));
        break;
      case 1:
        C = std::make_shared<ScaledCurve>(C, Rng.nextInRange(1, 3));
        break;
      case 2:
        C = std::make_shared<MinCurve>(
            C, std::make_shared<LeakyBucketCurve>(
                   Rng.nextInRange(1, 4), Rng.nextInRange(50, 400)));
        break;
      default:
        C = std::make_shared<SumCurve>(std::vector<ArrivalCurvePtr>{
            C, std::make_shared<PeriodicCurve>(Rng.nextInRange(20, 600))});
        break;
      }
    }
    std::string Replay =
        "; replay: RPROSA_FUZZ_SEED=" + std::to_string(Seed);
    ASSERT_TRUE(C->validate(5000).passed()) << C->describe() << Replay;
    for (std::uint64_t N : {1ull, 3ull, 9ull}) {
      Duration W = minWindowAdmitting(*C, N, 1u << 26);
      if (W == TimeInfinity)
        continue;
      EXPECT_GE(C->eval(W), N) << C->describe() << Replay;
      if (W > 1) {
        EXPECT_LT(C->eval(W - 1), N) << C->describe() << Replay;
      }
    }
  }
}

TEST(FuzzQueues, PolicyQueuesMatchReferenceSort) {
  // Differential check of the queues against a reference: drain order
  // equals a stable sort by the policy key.
  const std::uint64_t Seed = fuzzSeed(777);
  SplitMix64 Rng(Seed);
  TaskSet TS;
  TS.addTask("a", 10, 3, std::make_shared<PeriodicCurve>(100), 40);
  TS.addTask("b", 10, 1, std::make_shared<PeriodicCurve>(100), 250);
  TS.addTask("c", 10, 2, std::make_shared<PeriodicCurve>(100), 90);

  for (int Round = 0; Round < 30; ++Round) {
    std::vector<Job> Jobs;
    for (JobId Id = 1; Id <= 12; ++Id) {
      Job J = mkJob(Id, static_cast<TaskId>(Rng.nextInRange(0, 2)));
      J.ReadAt = Rng.nextInRange(0, 500);
      Jobs.push_back(J);
    }
    for (SchedPolicy P :
         {SchedPolicy::Npfp, SchedPolicy::Edf, SchedPolicy::Fifo}) {
      PendingQueue<Job> Q;
      for (const Job &J : Jobs)
        Q.push(pendingKey(P, TS.task(J.Task), J.ReadAt), J);
      std::vector<Job> Ref = Jobs;
      std::stable_sort(Ref.begin(), Ref.end(),
                       [&](const Job &A, const Job &B) {
                         auto Key = [&](const Job &J) -> std::uint64_t {
                           switch (P) {
                           case SchedPolicy::Npfp:
                             return ~std::uint64_t(TS.task(J.Task).Prio);
                           case SchedPolicy::Edf:
                             return J.ReadAt + TS.task(J.Task).Deadline;
                           case SchedPolicy::Fifo:
                             return J.Id;
                           }
                           return J.Id;
                         };
                         return Key(A) < Key(B);
                       });
      for (const Job &Expected : Ref) {
        ASSERT_FALSE(Q.empty())
            << toString(P) << "; replay: RPROSA_FUZZ_SEED=" << Seed;
        EXPECT_EQ(Q.front().Id, Expected.Id)
            << toString(P) << "; replay: RPROSA_FUZZ_SEED=" << Seed;
        Q.pop();
      }
      EXPECT_TRUE(Q.empty());
    }
  }
}

TEST(FuzzQueues, InterleavedPushesAndPopsMatchALinearScan) {
  // The container against the plainest model of its contract: the next
  // entry to leave is the earliest pushed among those with the smallest
  // key. Few distinct keys, so most pops break a tie.
  const std::uint64_t Seed = fuzzSeed(778);
  SplitMix64 Rng(Seed);
  const std::string Replay =
      "; replay: RPROSA_FUZZ_SEED=" + std::to_string(Seed);
  for (int Round = 0; Round < 30; ++Round) {
    PendingQueue<std::uint64_t> Q;
    // (key, push number) of every entry still queued, in push order.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> Model;
    std::uint64_t Pushed = 0;
    for (int Step = 0; Step < 400; ++Step) {
      // Two pushes per pop for the first half, then a drain.
      bool DoPush = Step < 200 ? Rng.nextInRange(0, 2) != 0
                               : Rng.nextInRange(0, 3) == 0;
      if (DoPush || Model.empty()) {
        std::uint64_t Key = Rng.nextInRange(0, 4);
        Q.push(Key, Pushed);
        Model.emplace_back(Key, Pushed++);
        continue;
      }
      auto Next = std::min_element(
          Model.begin(), Model.end(),
          [](const auto &A, const auto &B) { return A.first < B.first; });
      ASSERT_EQ(Q.size(), Model.size()) << Replay;
      ASSERT_EQ(Q.front(), Next->second) << Replay;
      Q.pop();
      Model.erase(Next);
    }
  }
}
