//===- tests/validity_test.cpp - Validity constraints (a)-(e) tests -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "convert/validity.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// A converted simulated run: the golden-path input for the checks.
struct SimulatedRun {
  ClientConfig Client;
  ArrivalSequence Arr{1};
  ConversionResult CR;
};

SimulatedRun makeRun(std::uint32_t NumSockets, std::uint64_t Seed) {
  SimulatedRun R;
  R.Client = makeClient(mixedTasks(), NumSockets);
  WorkloadSpec Spec;
  Spec.NumSockets = NumSockets;
  Spec.Horizon = 4000;
  Spec.Seed = Seed;
  R.Arr = generateWorkload(R.Client.Tasks, Spec);
  TimedTrace TT = runRossl(R.Client, R.Arr, 6000,
                           CostModelKind::AlwaysWcet, Seed);
  R.CR = convertTraceToSchedule(TT, NumSockets);
  return R;
}

} // namespace

TEST(Validity, HoldsOnSimulatedRuns) {
  for (std::uint32_t Socks : {1u, 2u, 4u}) {
    for (std::uint64_t Seed : {1ull, 17ull}) {
      SimulatedRun R = makeRun(Socks, Seed);
      CheckResult V = checkValidity(R.CR, R.Client.Tasks, R.Arr,
                                    R.Client.Wcets, Socks);
      EXPECT_TRUE(V.passed())
          << "sockets=" << Socks << " seed=" << Seed << "\n"
          << V.describe();
    }
  }
}

TEST(Validity, FlagsOverlongPollingInstance) {
  SimulatedRun R = makeRun(1, 1);
  // Forge a schedule with a PollingOvh instance longer than PB.
  ConversionResult Bad = R.CR;
  Bad.Sched = Schedule(0);
  Duration PB = R.Client.Wcets.FailedRead; // 1 socket.
  Bad.Sched.append(ProcState::overhead(ProcStateKind::PollingOvh, 1),
                   PB + 1);
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("PollingOvh"), std::string::npos);
}

TEST(Validity, FlagsPreemptedExecution) {
  SimulatedRun R = makeRun(1, 1);
  ConversionResult Bad;
  Bad.Sched = Schedule(0);
  // j1 executes in two separated runs: non-preemptivity violated.
  Bad.Sched.append(ProcState::executes(1), 5);
  Bad.Sched.append(ProcState::idle(), 3);
  Bad.Sched.append(ProcState::executes(1), 5);
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("non-preemptivity"), std::string::npos);
}

TEST(Validity, FlagsExecutionBeyondTaskWcet) {
  SimulatedRun R = makeRun(1, 1);
  ConversionResult Bad;
  Bad.Sched = Schedule(0);
  Duration C0 = R.Client.Tasks.task(0).Wcet;
  Bad.Sched.append(ProcState::executes(1), C0 + 1);
  ConvertedJob CJ;
  CJ.J = mkJob(1, 0, R.Arr.arrivals()[0].Msg.Id);
  CJ.ReadAt = R.Arr.arrivals()[0].At + 1;
  Bad.Jobs.push_back(CJ);
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("C_i"), std::string::npos);
}

TEST(Validity, FlagsJobWithoutArrival) {
  SimulatedRun R = makeRun(1, 1);
  ConversionResult Bad;
  ConvertedJob CJ;
  CJ.J = mkJob(1, 0, /*Msg=*/987654);
  CJ.ReadAt = 10;
  Bad.Jobs.push_back(CJ);
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("no arrival"), std::string::npos);
}

TEST(Validity, FlagsReadBeforeArrival) {
  SimulatedRun R = makeRun(1, 1);
  const Arrival &A = R.Arr.arrivals().back();
  ConversionResult Bad;
  ConvertedJob CJ;
  CJ.J = mkJob(1, A.Msg.Task, A.Msg.Id);
  CJ.ReadAt = A.At; // Must be strictly after.
  Bad.Jobs.push_back(CJ);
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  ASSERT_FALSE(V.passed());
}

TEST(Validity, FlagsDuplicateJobIds) {
  SimulatedRun R = makeRun(1, 1);
  const auto &Arrs = R.Arr.arrivals();
  ASSERT_GE(Arrs.size(), 2u);
  ConversionResult Bad;
  for (int K = 0; K < 2; ++K) {
    ConvertedJob CJ;
    CJ.J = mkJob(1, Arrs[K].Msg.Task, Arrs[K].Msg.Id);
    CJ.ReadAt = Arrs[K].At + 1;
    Bad.Jobs.push_back(CJ);
  }
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("duplicate job id"), std::string::npos);
}

TEST(Validity, FlagsPrioritySelectionViolation) {
  // Handcraft: low-priority job selected while a high-priority job was
  // read and pending.
  TaskSet TS;
  addPeriodicTask(TS, "lo", 10, 1, 1000);
  addPeriodicTask(TS, "hi", 10, 2, 1000);
  ClientConfig C = makeClient(std::move(TS), 1);
  ArrivalSequence Arr(1);
  MsgId MLo = Arr.addArrival(0, 0, 0);
  MsgId MHi = Arr.addArrival(0, 0, 1);

  ConversionResult Bad;
  ConvertedJob Lo, Hi;
  Lo.J = mkJob(1, 0, MLo);
  Lo.ReadAt = 5;
  Lo.SelectedAt = 20;
  Lo.DispatchedAt = 25;
  Hi.J = mkJob(2, 1, MHi);
  Hi.ReadAt = 6; // Read before Lo's selection, still pending then.
  Hi.SelectedAt = 100;
  Hi.DispatchedAt = 105;
  Bad.Jobs.push_back(Lo);
  Bad.Jobs.push_back(Hi);
  CheckResult V = checkValidity(Bad, C.Tasks, Arr, C.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("precedes it under"), std::string::npos);
}

TEST(Validity, FlagsOutOfOrderJobEvents) {
  SimulatedRun R = makeRun(1, 1);
  const Arrival &A = R.Arr.arrivals()[0];
  ConversionResult Bad;
  ConvertedJob CJ;
  CJ.J = mkJob(1, A.Msg.Task, A.Msg.Id);
  CJ.ReadAt = A.At + 100;
  CJ.SelectedAt = A.At + 50; // Before the read: impossible.
  Bad.Jobs.push_back(CJ);
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("out-of-order"), std::string::npos);
}

TEST(Validity, RecurringJobIdOpensASecondEntryAndIsFlagged) {
  // j1 completes, then a read delivers id 1 again (with a new message).
  // The conversion opens a second table entry, and (e) reports the
  // duplicate id.
  TaskSet TS;
  addPeriodicTask(TS, "t", 10, 1, 1000);
  ClientConfig C = makeClient(std::move(TS), 1);
  ArrivalSequence Arr(1);
  MsgId M1 = Arr.addArrival(0, 0, 0);
  MsgId M2 = Arr.addArrival(1, 0, 0);
  Job First = mkJob(1, 0, M1), Again = mkJob(1, 0, M2);
  TimedTrace TT = TraceBuilder()
                      .successRead(0, First, 10)
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(First), 2)
                      .at(MarkerEvent::execution(First), 10)
                      .at(MarkerEvent::completion(First), 5)
                      .successRead(0, Again, 10)
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(Again), 2)
                      .at(MarkerEvent::execution(Again), 10)
                      .at(MarkerEvent::completion(Again), 5)
                      .finish();
  ConversionResult CR = convertTraceToSchedule(TT, 1);
  ASSERT_EQ(CR.Jobs.size(), 2u);
  EXPECT_EQ(CR.Jobs[0].J.Msg, M1);
  EXPECT_EQ(CR.Jobs[0].ReadAt, 10u);
  EXPECT_EQ(CR.Jobs[0].CompletedAt, std::optional<Time>(29));
  EXPECT_EQ(CR.Jobs[1].J.Id, 1u);
  EXPECT_EQ(CR.Jobs[1].J.Msg, M2);
  EXPECT_EQ(CR.Jobs[1].ReadAt, 44u);
  EXPECT_EQ(CR.Jobs[1].CompletedAt, std::optional<Time>(63));
  CheckResult V = checkValidity(CR, C.Tasks, Arr, C.Wcets, 1);
  ASSERT_FALSE(V.passed());
  EXPECT_NE(V.describe().find("(e) duplicate job id j1"), std::string::npos)
      << V.describe();
}

TEST(Validity, DuplicateIdsBothSelectedCountTheSameIdPair) {
  SimulatedRun R = makeRun(1, 1);
  const auto &Arrs = R.Arr.arrivals();
  ASSERT_GE(Arrs.size(), 2u);
  ConversionResult Bad;
  for (int K = 0; K < 2; ++K) {
    ConvertedJob CJ;
    CJ.J = mkJob(1, Arrs[K].Msg.Task, Arrs[K].Msg.Id);
    CJ.ReadAt = Arrs[K].At + 1;
    CJ.SelectedAt = Arrs[K].At + 2;
    Bad.Jobs.push_back(CJ);
  }
  CheckResult V = checkValidity(Bad, R.Client.Tasks, R.Arr,
                                R.Client.Wcets, 1);
  EXPECT_EQ(V.failures(),
            std::vector<std::string>{"(e) duplicate job id j1"});
  // (b)/(e): 4 per entry; (d) ordering: 1 per entry; (c): 1. Entries
  // that share an id share one record, which counts once as the selected
  // job and once more as its competitor.
  EXPECT_EQ(V.checksPerformed(), 11u);
}
