//===- tests/scheduler_test.cpp - Rössl scheduling-loop tests (Fig. 2/3) --===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rossl/scheduler.h"

#include "trace/functional.h"
#include "trace/protocol.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// Extracts the order of dispatched job ids from a trace.
std::vector<JobId> dispatchOrder(const Trace &Tr) {
  std::vector<JobId> Out;
  for (const MarkerEvent &E : Tr)
    if (E.Kind == MarkerKind::Dispatch && E.J)
      Out.push_back(E.J->Id);
  return Out;
}

std::vector<TaskId> dispatchTaskOrder(const Trace &Tr) {
  std::vector<TaskId> Out;
  for (const MarkerEvent &E : Tr)
    if (E.Kind == MarkerKind::Dispatch && E.J)
      Out.push_back(E.J->Task);
  return Out;
}

} // namespace

TEST(Scheduler, IdleRunProducesOnlyIdleIterations) {
  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1); // No arrivals at all.
  TimedTrace TT = runRossl(C, Arr, /*Horizon=*/200);
  ASSERT_FALSE(TT.empty());
  EXPECT_TRUE(checkProtocol(TT.Tr, 1).passed());
  for (const MarkerEvent &E : TT.Tr) {
    EXPECT_NE(E.Kind, MarkerKind::Dispatch);
    EXPECT_FALSE(E.isSuccessfulRead());
  }
  EXPECT_GE(TT.EndTime, 200u);
}

TEST(Scheduler, Figure3ScenarioDispatchesHighPriorityFirst) {
  // The Fig. 3 run: j1 (tau1, low prio) arrives first, j2 (tau2, high
  // prio) arrives while j1 is being read; Rössl reads both, then
  // executes j2 before j1.
  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, /*Task=*/0);  // j1, read first.
  Arr.addArrival(5, 0, /*Task=*/1);  // j2 arrives during the first read.
  TimedTrace TT = runRossl(C, Arr, /*Horizon=*/500);

  EXPECT_TRUE(checkProtocol(TT.Tr, 1).passed());
  EXPECT_TRUE(checkFunctionalCorrectness(TT.Tr, C.Tasks).passed());

  std::vector<TaskId> Order = dispatchTaskOrder(TT.Tr);
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], 1u) << "high-priority tau2 job must run first";
  EXPECT_EQ(Order[1], 0u);
}

TEST(Scheduler, FifoWithinSamePriority) {
  TaskSet TS;
  addPeriodicTask(TS, "a", 10, 1, 50);
  ClientConfig C = makeClient(std::move(TS), 1);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(0, 0, 0);
  // The curve is violated (3 at once for a periodic task) but the
  // scheduler itself doesn't care; this isolates queue order.
  TimedTrace TT = runRossl(C, Arr, 500);
  std::vector<JobId> Order = dispatchOrder(TT.Tr);
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_LT(Order[0], Order[1]);
  EXPECT_LT(Order[1], Order[2]);
}

TEST(Scheduler, JobIdsAreUniqueAndMonotone) {
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 3000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  TimedTrace TT = runRossl(C, Arr, 5000);
  JobId Prev = 0;
  for (const MarkerEvent &E : TT.Tr) {
    if (!E.isSuccessfulRead())
      continue;
    EXPECT_GT(E.J->Id, Prev) << "read ids must increase monotonically";
    Prev = E.J->Id;
  }
}

TEST(Scheduler, StopsAtIterationBoundaryPastHorizon) {
  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1);
  TimedTrace TT = runRossl(C, Arr, /*Horizon=*/100);
  ASSERT_FALSE(TT.empty());
  // The final marker closes an iteration (Idling or Completion).
  MarkerKind Last = TT.Tr.back().Kind;
  EXPECT_TRUE(Last == MarkerKind::Idling || Last == MarkerKind::Completion)
      << "run must stop at an iteration boundary, ended with "
      << toString(Last);
  EXPECT_EQ(TT.Ts.size(), TT.Tr.size());
  EXPECT_GE(TT.EndTime, TT.Ts.back());
}

TEST(Scheduler, MaxMarkersLimitIsRespected) {
  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1);
  Environment Env(Arr);
  CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1);
  FdScheduler Sched(C, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = 1000000;
  Limits.MaxMarkers = 50;
  TimedTrace TT = Sched.run(Limits);
  // The limit is checked at iteration boundaries, so we may overshoot
  // by at most one iteration (4 markers for an idle cycle on 1 socket).
  EXPECT_LE(TT.size(), 54u);
}

TEST(Scheduler, CallbackHooksFire) {
  TaskSet TS = figure3Tasks();
  ClientConfig C = makeClient(std::move(TS), 1);
  std::vector<int> Calls(2, 0);
  C.Callbacks.resize(2);
  C.Callbacks[0] = [&](const Job &) { ++Calls[0]; };
  C.Callbacks[1] = [&](const Job &) { ++Calls[1]; };
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(1, 0, 1);
  runRossl(C, Arr, 500);
  EXPECT_EQ(Calls[0], 1);
  EXPECT_EQ(Calls[1], 1);
}

TEST(Scheduler, ReadsDrainBacklogInOnePollingPhase) {
  // Five messages already queued: the polling phase must read all five
  // before the first selection (check_sockets_until_empty semantics).
  TaskSet TS;
  addBurstyTask(TS, "b", 10, 1, /*Burst=*/5, /*Rate=*/1000);
  ClientConfig C = makeClient(std::move(TS), 1);
  ArrivalSequence Arr(1);
  for (int I = 0; I < 5; ++I)
    Arr.addArrival(0, 0, 0);
  TimedTrace TT = runRossl(C, Arr, 2000);
  std::size_t FirstSelection = 0;
  std::size_t ReadsBefore = 0;
  for (std::size_t I = 0; I < TT.size(); ++I) {
    if (TT.Tr[I].Kind == MarkerKind::Selection) {
      FirstSelection = I;
      break;
    }
    if (TT.Tr[I].isSuccessfulRead())
      ++ReadsBefore;
  }
  EXPECT_EQ(ReadsBefore, 5u)
      << "all queued messages must be read before the first selection "
         "(first selection at marker "
      << FirstSelection << ")";
}

TEST(SchedulerDeathTest, ArrivalOfUnknownTaskAborts) {
  // The scheduler indexes the task set with each read job's task id; an
  // arrival sequence built by hand can name a task the set lacks.
  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, /*Task=*/7);
  EXPECT_DEATH(runRossl(C, Arr, 200), "classifier produced unknown task");
}
