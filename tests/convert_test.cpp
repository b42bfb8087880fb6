//===- tests/convert_test.cpp - Trace→schedule conversion tests (§2.4) ----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "convert/trace_to_schedule.h"

#include "trace/protocol.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

TEST(Convert, IdleCycleMapsToIdle) {
  TimedTrace TT = TraceBuilder()
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  CheckResult Diags;
  ConversionResult CR = convertTraceToSchedule(TT, 1, &Diags);
  EXPECT_TRUE(Diags.passed()) << Diags.describe();
  ASSERT_EQ(CR.Sched.segments().size(), 1u);
  EXPECT_TRUE(CR.Sched.segments()[0].State.isIdle());
  EXPECT_EQ(CR.Sched.segments()[0].Len, 15u);
}

TEST(Convert, JobIterationAttribution) {
  Job J = mkJob(1, 0);
  // Success round (one socket): read j (10); final failed round (4);
  // selection (3); dispatch (2); execution (50); completion (5).
  TimedTrace TT = TraceBuilder()
                      .successRead(0, J, 10)
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(J), 2)
                      .at(MarkerEvent::execution(J), 50)
                      .at(MarkerEvent::completion(J), 5)
                      .finish();
  CheckResult Diags;
  ConversionResult CR = convertTraceToSchedule(TT, 1, &Diags);
  EXPECT_TRUE(Diags.passed()) << Diags.describe();

  const auto &Segs = CR.Sched.segments();
  ASSERT_EQ(Segs.size(), 6u);
  EXPECT_EQ(Segs[0].State.Kind, ProcStateKind::ReadOvh);
  EXPECT_EQ(Segs[0].Len, 10u);
  EXPECT_EQ(Segs[1].State.Kind, ProcStateKind::PollingOvh);
  EXPECT_EQ(Segs[1].Len, 4u);
  EXPECT_EQ(Segs[2].State.Kind, ProcStateKind::SelectionOvh);
  EXPECT_EQ(Segs[2].Len, 3u);
  EXPECT_EQ(Segs[3].State.Kind, ProcStateKind::DispatchOvh);
  EXPECT_EQ(Segs[3].Len, 2u);
  EXPECT_EQ(Segs[4].State.Kind, ProcStateKind::Executes);
  EXPECT_EQ(Segs[4].Len, 50u);
  EXPECT_EQ(Segs[5].State.Kind, ProcStateKind::CompletionOvh);
  EXPECT_EQ(Segs[5].Len, 5u);
  for (const ScheduleSegment &S : Segs) {
    if (!S.State.isIdle()) {
      EXPECT_EQ(S.State.Job, 1u);
    }
  }

  // The job table carries the event times.
  ASSERT_EQ(CR.Jobs.size(), 1u);
  const ConvertedJob &CJ = CR.Jobs[0];
  EXPECT_EQ(CJ.ReadAt, 10u);
  ASSERT_TRUE(CJ.SelectedAt.has_value());
  EXPECT_EQ(*CJ.SelectedAt, 14u);
  ASSERT_TRUE(CJ.DispatchedAt.has_value());
  EXPECT_EQ(*CJ.DispatchedAt, 17u);
  ASSERT_TRUE(CJ.CompletedAt.has_value());
  EXPECT_EQ(*CJ.CompletedAt, 69u); // 10+4+3+2+50.
}

TEST(Convert, FailedReadsBeforeSuccessJoinReadOvh) {
  // Two sockets: round 1 = fail(s0) + success(s1); round 2 all failed.
  Job J = mkJob(1, 0);
  TimedTrace TT = TraceBuilder()
                      .failedRead(0, 4)
                      .successRead(1, J, 10)
                      .failedRead(0, 4)
                      .failedRead(1, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(J), 2)
                      .at(MarkerEvent::execution(J), 50)
                      .at(MarkerEvent::completion(J), 5)
                      .finish();
  ConversionResult CR = convertTraceToSchedule(TT, 2);
  const auto &Segs = CR.Sched.segments();
  // ReadOvh covers fail+success = 14 ticks; PollingOvh the final round.
  ASSERT_GE(Segs.size(), 2u);
  EXPECT_EQ(Segs[0].State.Kind, ProcStateKind::ReadOvh);
  EXPECT_EQ(Segs[0].Len, 14u);
  EXPECT_EQ(Segs[1].State.Kind, ProcStateKind::PollingOvh);
  EXPECT_EQ(Segs[1].Len, 8u);
}

TEST(Convert, TrailingFailuresAttachToLastSuccess) {
  // Round 1 on two sockets: success(s0) + fail(s1) — the trailing
  // failure joins j1's ReadOvh chunk.
  Job J = mkJob(1, 0);
  TimedTrace TT = TraceBuilder()
                      .successRead(0, J, 10)
                      .failedRead(1, 4)
                      .failedRead(0, 4)
                      .failedRead(1, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(J), 2)
                      .at(MarkerEvent::execution(J), 50)
                      .at(MarkerEvent::completion(J), 5)
                      .finish();
  ConversionResult CR = convertTraceToSchedule(TT, 2);
  const auto &Segs = CR.Sched.segments();
  ASSERT_GE(Segs.size(), 2u);
  EXPECT_EQ(Segs[0].State.Kind, ProcStateKind::ReadOvh);
  EXPECT_EQ(Segs[0].Len, 14u) << "trailing failure must join the chunk";
}

TEST(Convert, TwoJobsInOneRoundSplitChunks) {
  Job J1 = mkJob(1, 0), J2 = mkJob(2, 1);
  TimedTrace TT = TraceBuilder()
                      .successRead(0, J1, 10)
                      .successRead(1, J2, 10)
                      .failedRead(0, 4)
                      .failedRead(1, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(J2), 2)
                      .at(MarkerEvent::execution(J2), 30)
                      .at(MarkerEvent::completion(J2), 5)
                      .finish();
  ConversionResult CR = convertTraceToSchedule(TT, 2);
  const auto &Segs = CR.Sched.segments();
  ASSERT_GE(Segs.size(), 3u);
  EXPECT_EQ(Segs[0].State.Kind, ProcStateKind::ReadOvh);
  EXPECT_EQ(Segs[0].State.Job, 1u);
  EXPECT_EQ(Segs[0].Len, 10u);
  EXPECT_EQ(Segs[1].State.Kind, ProcStateKind::ReadOvh);
  EXPECT_EQ(Segs[1].State.Job, 2u);
  EXPECT_EQ(Segs[1].Len, 10u);
  // PollingOvh is attributed to the job executed next (j2).
  EXPECT_EQ(Segs[2].State.Kind, ProcStateKind::PollingOvh);
  EXPECT_EQ(Segs[2].State.Job, 2u);
}

TEST(Convert, SchedulePreservesTotalTime) {
  // Simulated run: schedule must tile [ts[0], EndTime) exactly.
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 4000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  TimedTrace TT = runRossl(C, Arr, 6000);
  ASSERT_TRUE(checkProtocol(TT.Tr, 2).passed());

  CheckResult Diags;
  ConversionResult CR = convertTraceToSchedule(TT, 2, &Diags);
  EXPECT_TRUE(Diags.passed()) << Diags.describe();
  EXPECT_TRUE(CR.Sched.validateStructure().passed());
  EXPECT_EQ(CR.Sched.startTime(), TT.Ts.front());
  EXPECT_EQ(CR.Sched.endTime(), TT.EndTime)
      << "conversion must not drop or invent time";
}

TEST(Convert, CompletionTimesMatchTraceMarkers) {
  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(5, 0, 1);
  TimedTrace TT = runRossl(C, Arr, 1000);
  ConversionResult CR = convertTraceToSchedule(TT, 1);

  for (std::size_t I = 0; I < TT.size(); ++I) {
    if (TT.Tr[I].Kind != MarkerKind::Completion)
      continue;
    const ConvertedJob *CJ = CR.findJob(TT.Tr[I].J->Id);
    ASSERT_NE(CJ, nullptr);
    ASSERT_TRUE(CJ->CompletedAt.has_value());
    EXPECT_EQ(*CJ->CompletedAt, TT.Ts[I]);
    // The schedule's Executes segment ends exactly there.
    ASSERT_TRUE(CR.Sched.completionTime(CJ->J.Id).has_value());
    EXPECT_EQ(*CR.Sched.completionTime(CJ->J.Id), TT.Ts[I]);
  }
}

TEST(Convert, MalformedTraceProducesDiagnostics) {
  // A lone selection with no polling phase before it.
  TimedTrace TT = TraceBuilder()
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  CheckResult Diags;
  ConversionResult CR = convertTraceToSchedule(TT, 1, &Diags);
  EXPECT_FALSE(Diags.passed());
  // Still contiguous: unattributable spans become Idle.
  EXPECT_TRUE(CR.Sched.validateStructure().passed());
  EXPECT_EQ(CR.Sched.length(), 11u);
}

TEST(Convert, TraceEndingOnBareReadSClosesWithIdle) {
  // ReadS, ReadE(j1), ReadS with exactly sized vectors (reading past the
  // last marker trips ASan): j1's round, then a final failed read that
  // the cut run leaves open.
  TimedTrace TT;
  TT.Tr = {MarkerEvent::readS(), MarkerEvent::readE(0, mkJob(1, 0)),
           MarkerEvent::readS()};
  TT.Ts = {0, 10, 10};
  TT.EndTime = 14;
  CheckResult Diags;
  ConversionResult CR = convertTraceToSchedule(TT, 1, &Diags);
  EXPECT_TRUE(Diags.passed()) << Diags.describe();

  const auto &Segs = CR.Sched.segments();
  ASSERT_EQ(Segs.size(), 2u);
  EXPECT_TRUE(Segs[0].State ==
              ProcState::overhead(ProcStateKind::ReadOvh, 1));
  EXPECT_EQ(Segs[0].Start, 0u);
  EXPECT_EQ(Segs[0].Len, 10u);
  EXPECT_TRUE(Segs[1].State.isIdle());
  EXPECT_EQ(Segs[1].Len, 4u);
  ASSERT_EQ(CR.Jobs.size(), 1u);
  EXPECT_EQ(CR.Jobs[0].ReadAt, 10u);
}

TEST(Convert, DiagnosticsFollowTraceOrder) {
  // Two sockets, three failed reads: an all-failed round before the
  // last one, then a truncated round. The all-failed round is reported
  // when the third read shows it was not the final round, the truncation
  // when the selection closes the phase.
  TimedTrace TT = TraceBuilder()
                      .failedRead(0, 4)
                      .failedRead(1, 4)
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  CheckResult Diags;
  ConversionResult CR = convertTraceToSchedule(TT, 2, &Diags);
  const std::string NoSuccess = "polling round without a successful read "
                                "outside the final round; mapped to Idle";
  const std::vector<std::string> Want = {
      NoSuccess, "polling phase with a truncated round (3 reads, 2 sockets)",
      NoSuccess};
  EXPECT_EQ(Diags.failures(), Want);
  ASSERT_EQ(CR.Sched.segments().size(), 1u);
  EXPECT_TRUE(CR.Sched.segments()[0].State.isIdle());
  EXPECT_EQ(CR.Sched.length(), 23u);
}

TEST(ConvertDeathTest, DecreasingTimestampsAbort) {
  // Timestamp order is a precondition: the run below would otherwise
  // yield wrapped action lengths.
  TimedTrace TT;
  TT.Tr = {MarkerEvent::readS(), MarkerEvent::readE(0, std::nullopt),
           MarkerEvent::selection(), MarkerEvent::idling()};
  TT.Ts = {0, 12, 4, 9};
  TT.EndTime = 20;
  EXPECT_DEATH(convertTraceToSchedule(TT, 1),
               "markers must be delivered in timestamp order");
}
