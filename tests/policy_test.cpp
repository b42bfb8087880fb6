//===- tests/policy_test.cpp - NP-EDF / NP-FIFO policy extension tests ----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "convert/schedule_builder.h"
#include "convert/validity_stream.h"
#include "rossl/scheduler.h"
#include "rta/rta_policies.h"
#include "sim/workload.h"
#include "trace/check_sinks.h"
#include "trace/functional.h"
#include "trace/marker_specs.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// Three tasks with deadlines (for EDF) and distinct priorities (for
/// NPFP); the policies order them differently on purpose.
TaskSet deadlineTasks() {
  TaskSet TS;
  // NPFP order: urgent > relaxed > slack. EDF order depends on read
  // times and deadlines.
  TS.addTask("urgent", 30, /*Prio=*/3,
             std::make_shared<PeriodicCurve>(1000), /*Deadline=*/500);
  TS.addTask("relaxed", 40, /*Prio=*/2,
             std::make_shared<PeriodicCurve>(1000), /*Deadline=*/2000);
  TS.addTask("slack", 50, /*Prio=*/1,
             std::make_shared<PeriodicCurve>(1000), /*Deadline=*/100);
  return TS;
}

Job readJob(JobId Id, TaskId Task, Time ReadAt) {
  Job J = mkJob(Id, Task);
  J.ReadAt = ReadAt;
  return J;
}

std::vector<TaskId> dispatchTaskOrder(const Trace &Tr) {
  std::vector<TaskId> Out;
  for (const MarkerEvent &E : Tr)
    if (E.Kind == MarkerKind::Dispatch && E.J)
      Out.push_back(E.J->Task);
  return Out;
}

/// Pushes \p J under FdScheduler's key for policy \p P.
void push(PendingQueue<Job> &Q, SchedPolicy P, const TaskSet &TS,
          const Job &J) {
  Q.push(pendingKey(P, TS.task(J.Task), J.ReadAt), J);
}

/// Pops the next job and returns its id.
JobId popId(PendingQueue<Job> &Q) {
  JobId Id = Q.front().Id;
  Q.pop();
  return Id;
}

} // namespace

TEST(PendingQueue, EdfSelectsEarliestDeadline) {
  TaskSet TS = deadlineTasks();
  PendingQueue<Job> Q;
  const SchedPolicy Edf = SchedPolicy::Edf;
  push(Q, Edf, TS, readJob(1, 0, /*ReadAt=*/100)); // key 600.
  push(Q, Edf, TS, readJob(2, 1, 100));            // key 2100.
  push(Q, Edf, TS, readJob(3, 2, 100));            // key 200.
  EXPECT_EQ(Q.size(), 3u);
  EXPECT_EQ(popId(Q), 3u); // slack has the tightest deadline.
  EXPECT_EQ(popId(Q), 1u);
  EXPECT_EQ(popId(Q), 2u);
  EXPECT_TRUE(Q.empty());
}

TEST(PendingQueue, EdfBreaksTiesFifo) {
  TaskSet TS = deadlineTasks();
  PendingQueue<Job> Q;
  push(Q, SchedPolicy::Edf, TS, readJob(5, 0, 100)); // key 600.
  push(Q, SchedPolicy::Edf, TS, readJob(6, 0, 100)); // key 600, read later.
  EXPECT_EQ(popId(Q), 5u);
  EXPECT_EQ(popId(Q), 6u);
}

TEST(PendingQueue, EdfKeyUsesReadTime) {
  TaskSet TS = deadlineTasks();
  PendingQueue<Job> Q;
  // Same task, earlier read wins even against a later-read shorter gap.
  push(Q, SchedPolicy::Edf, TS, readJob(1, 1, /*ReadAt=*/0));    // 2000.
  push(Q, SchedPolicy::Edf, TS, readJob(2, 0, /*ReadAt=*/1600)); // 2100.
  EXPECT_EQ(popId(Q), 1u);
}

TEST(PendingQueue, EdfTaskWithoutDeadlineKeysByReadTime) {
  // validateClient rejects such a client; a run of it anyway must not
  // stop, so the job queues at its read time.
  TaskSet TS = deadlineTasks();
  TS.addTask("nodl", 10, /*Prio=*/4, std::make_shared<PeriodicCurve>(1000));
  PendingQueue<Job> Q;
  push(Q, SchedPolicy::Edf, TS, readJob(1, 0, /*ReadAt=*/100)); // key 600.
  push(Q, SchedPolicy::Edf, TS, readJob(2, 3, /*ReadAt=*/700)); // key 700.
  push(Q, SchedPolicy::Edf, TS, readJob(3, 3, /*ReadAt=*/500)); // key 500.
  EXPECT_EQ(popId(Q), 3u);
  EXPECT_EQ(popId(Q), 1u);
  EXPECT_EQ(popId(Q), 2u);
}

TEST(PendingQueue, FifoIsReadOrder) {
  TaskSet TS = deadlineTasks();
  PendingQueue<Job> Q;
  push(Q, SchedPolicy::Fifo, TS, readJob(1, 2, 0));
  push(Q, SchedPolicy::Fifo, TS, readJob(2, 0, 1));
  push(Q, SchedPolicy::Fifo, TS, readJob(3, 1, 2));
  EXPECT_EQ(popId(Q), 1u);
  EXPECT_EQ(popId(Q), 2u);
  EXPECT_EQ(popId(Q), 3u);
}

TEST(PendingQueue, PolicyChangesOnlyTheKey) {
  TaskSet TS = deadlineTasks();
  PendingQueue<Job> Npfp, Edf;
  // Distinguish by behaviour: low-prio/tight-deadline "slack" first on
  // EDF, last on NPFP.
  for (const Job &J : {readJob(1, 0, 10), readJob(2, 2, 10)}) {
    push(Npfp, SchedPolicy::Npfp, TS, J);
    push(Edf, SchedPolicy::Edf, TS, J);
  }
  EXPECT_EQ(Npfp.front().Task, 0u); // urgent (higher priority).
  EXPECT_EQ(Edf.front().Task, 2u);  // slack (earlier deadline).
}

TEST(PendingQueue, EqualKeysStayFifoAcrossInterleavedPushesAndPops) {
  // Ids 1..9 at keys 7 and 3; pops between the pushes reshape the
  // queue's storage, and equal keys must still leave in push order.
  PendingQueue<int> Q;
  std::vector<int> Out;
  auto Pop = [&] {
    Out.push_back(Q.front());
    Q.pop();
  };
  Q.push(7, 1);
  Q.push(7, 2);
  Q.push(3, 3);
  Q.push(7, 4);
  Pop(); // 3
  Q.push(3, 5);
  Q.push(7, 6);
  Pop(); // 5
  Pop(); // 1
  Q.push(3, 7);
  Q.push(7, 8);
  Q.push(3, 9);
  EXPECT_EQ(Q.size(), 6u);
  while (!Q.empty())
    Pop();
  EXPECT_EQ(Out, (std::vector<int>{3, 5, 1, 7, 9, 2, 4, 6, 8}));
}

TEST(PendingQueue, FrontWithoutPopKeepsTheEntry) {
  // DoubleDispatch's defect and the tick baseline's preempted job both
  // read front() without pop(): the entry stays, changes and all.
  PendingQueue<Job> Q;
  Q.push(priorityKey(1), readJob(1, 0, 0));
  Q.push(priorityKey(2), readJob(2, 0, 0));
  EXPECT_EQ(Q.front().Id, 2u);
  Q.front().ReadAt = 42;
  EXPECT_EQ(Q.size(), 2u);
  Q.push(priorityKey(2), readJob(3, 0, 0));
  EXPECT_EQ(Q.front().Id, 2u);
  EXPECT_EQ(Q.front().ReadAt, 42u);
  EXPECT_EQ(popId(Q), 2u);
  EXPECT_EQ(popId(Q), 3u);
  EXPECT_EQ(popId(Q), 1u);
  EXPECT_TRUE(Q.empty());
}

TEST(PolicyScheduler, DispatchOrderDiffersByPolicy) {
  // Three simultaneous arrivals; each policy orders them its own way.
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, /*Task=*/0);
  Arr.addArrival(0, 0, /*Task=*/1);
  Arr.addArrival(0, 0, /*Task=*/2);

  auto runWith = [&](SchedPolicy P) {
    ClientConfig C = makeClient(deadlineTasks(), 1);
    C.Policy = P;
    return dispatchTaskOrder(runRossl(C, Arr, 5000).Tr);
  };

  std::vector<TaskId> Npfp = runWith(SchedPolicy::Npfp);
  std::vector<TaskId> Edf = runWith(SchedPolicy::Edf);
  std::vector<TaskId> Fifo = runWith(SchedPolicy::Fifo);
  ASSERT_EQ(Npfp.size(), 3u);
  ASSERT_EQ(Edf.size(), 3u);
  ASSERT_EQ(Fifo.size(), 3u);

  // NPFP: by priority (urgent, relaxed, slack).
  EXPECT_EQ(Npfp, (std::vector<TaskId>{0, 1, 2}));
  // FIFO: by read order = socket queue order (task 0, 1, 2 arrived in
  // insertion order on the same socket).
  EXPECT_EQ(Fifo, (std::vector<TaskId>{0, 1, 2}));
  // EDF: read back-to-back, so keys are ~read + D: slack (100) first,
  // urgent (500), relaxed (2000).
  EXPECT_EQ(Edf, (std::vector<TaskId>{2, 0, 1}));
}

TEST(PolicyFunctional, ChecksFollowThePolicy) {
  TaskSet TS = deadlineTasks();
  Job Slack = readJob(1, 2, 10);
  Job Urgent = readJob(2, 0, 12);
  // Trace dispatching "slack" first: wrong for NPFP, right for EDF and
  // FIFO (read first).
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, Slack),
      MarkerEvent::readS(), MarkerEvent::readE(0, Urgent),
      MarkerEvent::selection(), MarkerEvent::dispatch(Slack),
  };
  EXPECT_FALSE(
      checkFunctionalCorrectness(Tr, TS, SchedPolicy::Npfp).passed());
  EXPECT_TRUE(
      checkFunctionalCorrectness(Tr, TS, SchedPolicy::Edf).passed());
  EXPECT_TRUE(
      checkFunctionalCorrectness(Tr, TS, SchedPolicy::Fifo).passed());

  // And the converse: dispatching "urgent" first violates FIFO and EDF.
  Trace Tr2 = {
      MarkerEvent::readS(), MarkerEvent::readE(0, Slack),
      MarkerEvent::readS(), MarkerEvent::readE(0, Urgent),
      MarkerEvent::selection(), MarkerEvent::dispatch(Urgent),
  };
  EXPECT_TRUE(
      checkFunctionalCorrectness(Tr2, TS, SchedPolicy::Npfp).passed());
  EXPECT_FALSE(
      checkFunctionalCorrectness(Tr2, TS, SchedPolicy::Edf).passed());
  EXPECT_FALSE(
      checkFunctionalCorrectness(Tr2, TS, SchedPolicy::Fifo).passed());
}

TEST(PolicyRta, FifoBoundsAreUniformAcrossTasks) {
  TaskSet TS = deadlineTasks();
  RtaResult R = analyzeFifo(TS, tinyWcets(), 1);
  ASSERT_TRUE(R.allBounded());
  // FIFO does not differentiate: every task sees all other workload.
  for (const TaskRta &T : R.PerTask)
    EXPECT_GE(T.ResponseBound, 30u + 40u + 50u)
        << "FIFO bound must cover one job of everyone";
}

TEST(PolicyRta, EdfTighterDeadlineGetsSmallerBound) {
  TaskSet TS;
  TS.addTask("tight", 30, 1, std::make_shared<PeriodicCurve>(2000),
             /*Deadline=*/200);
  TS.addTask("loose", 30, 1, std::make_shared<PeriodicCurve>(2000),
             /*Deadline=*/5000);
  RtaResult R = analyzeEdf(TS, tinyWcets(), 1);
  ASSERT_TRUE(R.allBounded());
  EXPECT_LT(R.forTask(0).ResponseBound, R.forTask(1).ResponseBound)
      << "the tighter deadline must be served sooner";
}

TEST(PolicyRta, EdfRequiresDeadlines) {
  TaskSet TS;
  TS.addTask("noD", 30, 1, std::make_shared<PeriodicCurve>(2000));
  RtaResult R = analyzeEdf(TS, tinyWcets(), 1);
  EXPECT_FALSE(R.allBounded());
}

TEST(PolicyRta, DispatchMatchesAnalyze) {
  TaskSet TS = deadlineTasks();
  for (SchedPolicy P :
       {SchedPolicy::Npfp, SchedPolicy::Edf, SchedPolicy::Fifo}) {
    RtaResult A = analyzePolicy(TS, tinyWcets(), 1, P);
    EXPECT_EQ(A.PerTask.size(), TS.size()) << toString(P);
  }
}

namespace {

struct PolicyCase {
  SchedPolicy Policy;
  std::uint64_t Seed;
  WorkloadStyle Style;
};

class PolicyAdequacy : public ::testing::TestWithParam<PolicyCase> {};

} // namespace

TEST_P(PolicyAdequacy, Theorem51HoldsForEveryPolicy) {
  const PolicyCase &P = GetParam();
  AdequacySpec Spec;
  Spec.Client = makeClient(deadlineTasks(), 2);
  Spec.Client.Policy = P.Policy;
  WorkloadSpec WSpec;
  WSpec.NumSockets = 2;
  WSpec.Horizon = 6000;
  WSpec.Seed = P.Seed;
  WSpec.Style = P.Style;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WSpec);
  Spec.Seed = P.Seed;
  Spec.Limits.Horizon = 80000;
  AdequacyReport Rep = runAdequacy(Spec);
  EXPECT_TRUE(Rep.assumptionsHold()) << toString(P.Policy) << "\n"
                                     << Rep.summary();
  EXPECT_TRUE(Rep.invariantsHold()) << toString(P.Policy) << "\n"
                                    << Rep.summary();
  EXPECT_TRUE(Rep.conclusionHolds()) << toString(P.Policy) << "\n"
                                     << Rep.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyAdequacy,
    ::testing::Values(
        PolicyCase{SchedPolicy::Edf, 1, WorkloadStyle::Random},
        PolicyCase{SchedPolicy::Edf, 2, WorkloadStyle::GreedyDense},
        PolicyCase{SchedPolicy::Edf, 3, WorkloadStyle::Sparse},
        PolicyCase{SchedPolicy::Fifo, 4, WorkloadStyle::Random},
        PolicyCase{SchedPolicy::Fifo, 5, WorkloadStyle::GreedyDense},
        PolicyCase{SchedPolicy::Npfp, 6, WorkloadStyle::GreedyDense}),
    [](const auto &Info) {
      std::string Name = toString(Info.param.Policy) + "_seed" +
                         std::to_string(Info.param.Seed);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(PolicyClient, EdfWithoutDeadlinesIsRejected) {
  TaskSet TS;
  addPeriodicTask(TS, "noD", 30, 1, 2000);
  ClientConfig C = makeClient(std::move(TS), 1);
  C.Policy = SchedPolicy::Edf;
  EXPECT_FALSE(validateClient(C).passed());
  C.Policy = SchedPolicy::Npfp;
  EXPECT_TRUE(validateClient(C).passed());
}

namespace {

/// The failure messages of \p R that contain \p Needle, in order.
std::vector<std::string> failuresWith(const CheckResult &R,
                                      const std::string &Needle) {
  std::vector<std::string> Out;
  for (const std::string &F : R.failures())
    if (F.find(Needle) != std::string::npos)
      Out.push_back(F);
  return Out;
}

} // namespace

TEST(PolicyKey, EdgeCasesPerChecker) {
  // Job j1 is read at t=10 and j2 of task "late" at t=20; the run then
  // dispatches j2 first. j1's task decides whether that breaks the
  // policy: "urgent" comes first under every policy, task 9 is unknown,
  // and "nodl" has no deadline, which only NP-EDF needs. The functional
  // sink and the validity check give such a job no key; the §3.1
  // contracts key it as priority 0 and deadline 0.
  TaskSet TS;
  TS.addTask("late", 40, /*Prio=*/1, std::make_shared<PeriodicCurve>(1000),
             /*Deadline=*/1000);
  TS.addTask("urgent", 40, /*Prio=*/3,
             std::make_shared<PeriodicCurve>(1000), /*Deadline=*/10);
  TS.addTask("nodl", 40, /*Prio=*/2, std::make_shared<PeriodicCurve>(1000));
  constexpr TaskId Unknown = 9;

  const std::string NoKeyRead =
      "marker 1: read job of unknown task or missing policy key";
  const std::string NoKeyDispatch =
      "marker 13: dispatched job of unknown task or missing policy key";
  const std::string UnknownRead = "call 1: read_end: job of unknown task";
  auto Precedes = [](SchedPolicy P) {
    return "call 7: dispatch_start: j1 precedes the dispatched job in " +
           toString(P) + " order";
  };
  auto Inversion = [](SchedPolicy P, const std::string &Rule) {
    return "marker 7: dispatched j2 although another pending job comes "
           "first under the " +
           toString(P) + " policy (Def. 3.2 " + Rule + " violated)";
  };
  auto Selection = [](SchedPolicy P) {
    return "(c) j2 selected at t=24 although read job j1 precedes it "
           "under " +
           toString(P) + " (schedule-level functional correctness)";
  };

  struct Row {
    SchedPolicy Policy;
    TaskId FirstTask;
    std::vector<std::string> Functional;
    std::vector<std::string> Validity; // The (c) failures.
    std::vector<std::string> Contracts;
  };
  const SchedPolicy Npfp = SchedPolicy::Npfp, Edf = SchedPolicy::Edf,
                    Fifo = SchedPolicy::Fifo;
  const std::vector<Row> Rows = {
      // Controls: j1 has a key and comes first.
      {Npfp, 1, {Inversion(Npfp, "highest-priority")}, {Selection(Npfp)},
       {Precedes(Npfp)}},
      {Edf, 1, {Inversion(Edf, "earliest-deadline")}, {Selection(Edf)},
       {Precedes(Edf)}},
      {Fifo, 1, {Inversion(Fifo, "first-read")}, {Selection(Fifo)},
       {Precedes(Fifo)}},
      // No key: the sinks fail at the read and the dispatch, and (c)
      // skips the job. The contracts key it as priority 0 (it never
      // blocks under NPFP) and deadline 0 (it keys by its read time
      // under NP-EDF).
      {Npfp, Unknown, {NoKeyRead, NoKeyDispatch}, {}, {UnknownRead}},
      {Edf, Unknown, {NoKeyRead, NoKeyDispatch}, {},
       {UnknownRead, Precedes(Edf)}},
      {Fifo, Unknown, {NoKeyRead, NoKeyDispatch}, {},
       {UnknownRead, Precedes(Fifo)}},
      {Edf, 2, {NoKeyRead, NoKeyDispatch}, {}, {Precedes(Edf)}},
      // Without NP-EDF, a task without a deadline has a key.
      {Npfp, 2, {Inversion(Npfp, "highest-priority")}, {Selection(Npfp)},
       {Precedes(Npfp)}},
  };

  for (const Row &R : Rows) {
    SCOPED_TRACE(toString(R.Policy) + ", first job of task " +
                 std::to_string(R.FirstTask));
    ArrivalSequence Arr(1);
    Job J1 = mkJob(1, R.FirstTask, Arr.addArrival(5, 0, R.FirstTask));
    Job J2 = mkJob(2, 0, Arr.addArrival(15, 0, 0));
    J1.ReadAt = 10;
    J2.ReadAt = 20;
    TimedTrace TT = TraceBuilder()
                        .successRead(0, J1, 10)
                        .successRead(0, J2, 10)
                        .failedRead(0, 4)
                        .at(MarkerEvent::selection(), 3)
                        .at(MarkerEvent::dispatch(J2), 2)
                        .at(MarkerEvent::execution(J2), 40)
                        .at(MarkerEvent::completion(J2), 5)
                        .failedRead(0, 4)
                        .at(MarkerEvent::selection(), 3)
                        .at(MarkerEvent::dispatch(J1), 2)
                        .at(MarkerEvent::execution(J1), 40)
                        .at(MarkerEvent::completion(J1), 5)
                        .failedRead(0, 4)
                        .at(MarkerEvent::selection(), 3)
                        .at(MarkerEvent::idling(), 8)
                        .finish();

    FunctionalCheckSink Functional(TS, R.Policy);
    replayTimedTrace(TT, Functional);
    EXPECT_EQ(Functional.result().failures(), R.Functional);

    StreamingValidity Validity(TS, Arr, tinyWcets(), 1, R.Policy);
    ScheduleBuilder Builder(1, Validity);
    replayTimedTrace(TT, Builder);
    EXPECT_EQ(failuresWith(Validity.take(), "(c)"), R.Validity);

    EXPECT_EQ(checkMarkerSpecs(TT.Tr, TS, R.Policy).failures(),
              R.Contracts);
  }
}
