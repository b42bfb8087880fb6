//===- tests/stream_test.cpp - The streaming event core -------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The push pipeline of DESIGN.md §9: sinks, fan-out, the incremental
/// action segmenter and schedule builder, and the O(tasks + open jobs)
/// state discipline — per-job state must actually be retired, the
/// look-ahead window must actually stay bounded, and out-of-order
/// delivery must be rejected loudly (death test).
///
//===----------------------------------------------------------------------===//

#include "convert/schedule_builder.h"
#include "convert/validity_stream.h"
#include "trace/basic_actions.h"
#include "trace/check_sinks.h"
#include "trace/consistency.h"
#include "trace/functional.h"
#include "trace/marker_specs.h"
#include "trace/protocol.h"
#include "trace/stream.h"
#include "trace/wcet_check.h"

#include "reference_batch.h"
#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

TimedTrace simTrace(std::uint32_t NumSockets = 2, Time Horizon = 9000) {
  ClientConfig C = makeClient(mixedTasks(), NumSockets);
  WorkloadSpec Spec;
  Spec.NumSockets = NumSockets;
  Spec.Horizon = Horizon / 2;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  return runRossl(C, Arr, Horizon);
}

} // namespace

TEST(VectorSink, ReplayRoundTripsExactly) {
  TimedTrace TT = simTrace();
  ASSERT_GT(TT.size(), 20u);

  VectorSink V;
  replayTimedTrace(TT, V);
  ASSERT_TRUE(V.finished());
  const TimedTrace &Got = V.trace();
  ASSERT_EQ(Got.size(), TT.size());
  EXPECT_EQ(Got.EndTime, TT.EndTime);
  for (std::size_t I = 0; I < TT.size(); ++I) {
    EXPECT_EQ(Got.Ts[I], TT.Ts[I]) << "marker " << I;
    EXPECT_EQ(Got.Tr[I].Kind, TT.Tr[I].Kind) << "marker " << I;
  }
}

TEST(TraceFanout, DeliversToEverySinkInOrder) {
  TimedTrace TT = simTrace();
  VectorSink A, B;
  TraceFanout Fan;
  Fan.add(A);
  Fan.add(B);
  replayTimedTrace(TT, Fan);
  EXPECT_TRUE(A.finished());
  EXPECT_TRUE(B.finished());
  EXPECT_EQ(A.trace().size(), TT.size());
  EXPECT_EQ(B.trace().size(), TT.size());
  EXPECT_EQ(A.trace().EndTime, TT.EndTime);
  EXPECT_EQ(B.trace().EndTime, TT.EndTime);
}

namespace {

/// Streams \p TT through an ActionSegmenter and compares every field of
/// every action with the reference segmentation, plus the M_ReadE
/// instant handed out with it (0 unless a Read absorbed a result).
void expectSegmentsLikeReference(const TimedTrace &TT) {
  std::vector<BasicAction> Batch = reference::segmentBasicActions(TT);

  std::vector<BasicAction> Streamed;
  std::vector<Time> ReadEAts;
  ActionSegmenter Seg([&](const BasicAction &A, Time ReadEAt) {
    Streamed.push_back(A);
    ReadEAts.push_back(ReadEAt);
  });
  for (std::size_t I = 0; I < TT.size(); ++I)
    Seg.onMarker(TT.Tr[I], TT.Ts[I]);
  Seg.onEnd(TT.EndTime);

  ASSERT_EQ(Streamed.size(), Batch.size());
  for (std::size_t I = 0; I < Batch.size(); ++I) {
    const BasicAction &Got = Streamed[I];
    const BasicAction &Want = Batch[I];
    EXPECT_EQ(Got.Kind, Want.Kind) << "action " << I;
    EXPECT_EQ(Got.Socket, Want.Socket) << "action " << I;
    EXPECT_EQ(Got.Start, Want.Start) << "action " << I;
    EXPECT_EQ(Got.End, Want.End) << "action " << I;
    EXPECT_EQ(Got.FirstMarker, Want.FirstMarker) << "action " << I;
    EXPECT_EQ(Got.EndMarker, Want.EndMarker) << "action " << I;
    ASSERT_EQ(Got.J.has_value(), Want.J.has_value()) << "action " << I;
    if (Want.J) {
      EXPECT_EQ(Got.J->Id, Want.J->Id) << "action " << I;
      EXPECT_EQ(Got.J->Msg, Want.J->Msg) << "action " << I;
      EXPECT_EQ(Got.J->Task, Want.J->Task) << "action " << I;
      EXPECT_EQ(Got.J->Socket, Want.J->Socket) << "action " << I;
      EXPECT_EQ(Got.J->ReadAt, Want.J->ReadAt) << "action " << I;
    }
    bool Absorbed = Want.Kind == BasicActionKind::Read &&
                    Want.EndMarker == Want.FirstMarker + 2;
    EXPECT_EQ(ReadEAts[I], Absorbed ? TT.Ts[Want.FirstMarker + 1] : 0)
        << "action " << I;
  }
}

} // namespace

TEST(ActionSegmenterStream, MatchesBatchSegmentation) {
  expectSegmentsLikeReference(simTrace());

  // Malformed shapes, each reusing the action before it: a successful
  // read on socket 1, a dangling M_ReadE, a selection that resolves to
  // idling, and a trailing bare M_ReadS.
  Job J = mkJob(7, 1, 9, 1);
  J.ReadAt = 12;
  TimedTrace Bad = TraceBuilder()
                       .at(MarkerEvent::readS(), 10)
                       .at(MarkerEvent::readE(1, J), 2)
                       .at(MarkerEvent::readE(0, std::nullopt), 3)
                       .at(MarkerEvent::selection(), 4)
                       .at(MarkerEvent::idling(), 5)
                       .at(MarkerEvent::readS(), 6)
                       .finish();
  std::vector<BasicAction> Want = reference::segmentBasicActions(Bad);
  ASSERT_EQ(Want.size(), 5u);
  EXPECT_EQ(Want[0].Socket, 1u);
  EXPECT_FALSE(Want[1].J.has_value());
  EXPECT_EQ(Want[2].Kind, BasicActionKind::Selection);
  EXPECT_EQ(Want[4].Kind, BasicActionKind::Read);
  expectSegmentsLikeReference(Bad);
}

TEST(CheckSinks, AgreeWithBatchCheckersOnASimulatedRun) {
  const std::uint32_t N = 2;
  ClientConfig C = makeClient(mixedTasks(), N);
  WorkloadSpec WS;
  WS.NumSockets = N;
  WS.Horizon = 4000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, WS);
  TimedTrace TT = runRossl(C, Arr, 8000);

  TimestampCheckSink Ts;
  ProtocolCheckSink Prot(N);
  FunctionalCheckSink Fun(C.Tasks, C.Policy);
  ConsistencyCheckSink Cons(Arr);
  WcetCheckSink Wcet(C.Tasks, C.Wcets);
  TraceFanout Fan;
  Fan.add(Ts);
  Fan.add(Prot);
  Fan.add(Fun);
  Fan.add(Cons);
  Fan.add(Wcet);
  replayTimedTrace(TT, Fan);
  EXPECT_EQ(Ts.markers(), TT.size());

  auto Same = [](CheckResult Got, const CheckResult &Want,
                 const char *Which) {
    EXPECT_EQ(Got.passed(), Want.passed()) << Which;
    EXPECT_EQ(Got.checksPerformed(), Want.checksPerformed()) << Which;
    EXPECT_EQ(Got.describe(), Want.describe()) << Which;
  };
  Same(Ts.take(), checkTimestamps(TT), "timestamps");
  Same(Prot.take(), checkProtocol(TT.Tr, N), "protocol");
  Same(Fun.take(), checkFunctionalCorrectness(TT.Tr, C.Tasks, C.Policy),
       "functional");
  Same(Cons.take(), checkConsistency(TT, Arr), "consistency");
  Same(Wcet.take(), checkWcetRespected(TT, C.Tasks, C.Wcets), "wcet");
}

TEST(ScheduleBuilderStream, LookAheadWindowStaysBounded) {
  const std::uint32_t N = 3;
  TimedTrace TT = simTrace(N, 20000);
  ASSERT_GT(TT.size(), 200u);

  ScheduleCapture Cap;
  ScheduleBuilder B(N, Cap);
  std::size_t MaxWindow = 0;
  for (std::size_t I = 0; I < TT.size(); ++I) {
    B.onMarker(TT.Tr[I], TT.Ts[I]);
    MaxWindow = std::max(MaxWindow, B.windowActions());
    // The §2.4 invariant: at most one full polling round (NumSockets
    // reads) plus the held selection, independent of the horizon.
    ASSERT_LE(B.windowActions(), std::size_t(N) + 1) << "marker " << I;
  }
  B.onEnd(TT.EndTime);
  EXPECT_GT(MaxWindow, 0u);
}

TEST(ScheduleBuilderStream, RetiresJobStateAtCompletion) {
  const std::uint32_t N = 2;
  ClientConfig C = makeClient(mixedTasks(), N);
  WorkloadSpec WS;
  WS.NumSockets = N;
  WS.Horizon = 10000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, WS);
  TimedTrace TT = runRossl(C, Arr, 20000);

  // Count retirements downstream; the consumer sees the builder's state
  // *after* the erase, so at every retirement the open count must
  // already exclude the retired job.
  struct Probe final : ScheduleEventConsumer {
    const ScheduleBuilder *B = nullptr;
    std::size_t Retired = 0;
    std::size_t MaxOpen = 0;
    void onJobRetired(const ConvertedJob &CJ, std::size_t) override {
      ASSERT_TRUE(CJ.CompletedAt.has_value());
      ++Retired;
      ASSERT_EQ(B->openJobs() + Retired, B->admittedJobs());
    }
    void onSegment(const ScheduleSegment &) override {
      MaxOpen = std::max(MaxOpen, B->openJobs());
    }
  } Probe;
  ScheduleBuilder B(N, Probe);
  Probe.B = &B;
  replayTimedTrace(TT, B);

  ASSERT_GT(Probe.Retired, 3u) << "run too small to exercise retirement";
  // Cross-check against the reference job table: retired == completed
  // jobs.
  ConversionResult Batch = reference::convertTraceToSchedule(TT, N);
  std::size_t Completed = 0;
  for (const ConvertedJob &CJ : Batch.Jobs)
    Completed += CJ.CompletedAt.has_value();
  EXPECT_EQ(Probe.Retired, Completed);
  EXPECT_EQ(B.admittedJobs(), Batch.Jobs.size());
  EXPECT_EQ(B.openJobs(), Batch.Jobs.size() - Completed);
}

TEST(StreamingValidityState, UsageAndRecordsDropAtRetirement) {
  const std::uint32_t N = 2;
  ClientConfig C = makeClient(mixedTasks(), N);
  WorkloadSpec WS;
  WS.NumSockets = N;
  WS.Horizon = 10000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, WS);
  TimedTrace TT = runRossl(C, Arr, 20000);

  StreamingValidity Val(C.Tasks, Arr, C.Wcets, N, C.Policy);
  // The probe runs after Val in the fan-out, so it observes Val's state
  // right after each event was applied.
  struct Probe final : ScheduleEventConsumer {
    StreamingValidity *V = nullptr;
    const ScheduleBuilder *B = nullptr;
    std::size_t Retirements = 0;
    void onJobRetired(const ConvertedJob &, std::size_t) override {
      ++Retirements;
      // Retired jobs hold no validity state: records track the
      // builder's open set, usage is evaluated and erased.
      ASSERT_EQ(V->openRecords(), B->openJobs());
      ASSERT_LE(V->openUsage(), B->openJobs());
    }
  } Probe;
  Probe.V = &Val;
  ScheduleEventFanout Events;
  Events.add(Val);
  Events.add(Probe);
  ScheduleBuilder B(N, Events);
  Probe.B = &B;
  replayTimedTrace(TT, B);

  ASSERT_GT(Probe.Retirements, 3u);
  EXPECT_TRUE(Val.take().passed());
}

TEST(CheckSinkState, GhostStateRetiredOverAConformantRun) {
  // A handcrafted conformant single-socket run with one job: the
  // pending state of Def. 3.2's sink and of the §3.1 contracts must
  // appear at the read and be gone after dispatch — and stay gone
  // through M_Completion.
  TaskSet TS = figure3Tasks();
  Job J1 = mkJob(1, /*Task=*/0);
  J1.ReadAt = 10;

  TraceBuilder TB;
  TB.successRead(0, J1, 10); // t=0..10: round 1 succeeds.
  TB.failedRead(0, 4);       // t=10..14: final all-failed round.
  TB.at(MarkerEvent::selection(), 3);
  Job JD = J1;
  JD.Socket = 0;
  TB.at(MarkerEvent::dispatch(JD), 2);
  TB.at(MarkerEvent::execution(JD), 40);
  TB.at(MarkerEvent::completion(JD), 5);
  TB.failedRead(0, 4); // Next phase: nothing to read.
  TB.at(MarkerEvent::selection(), 3);
  TB.at(MarkerEvent::idling(), 8);
  TimedTrace TT = TB.finish();

  TimestampCheckSink Ts;
  ProtocolCheckSink Prot(/*NumSockets=*/1);
  FunctionalCheckSink Fun(TS, SchedPolicy::Npfp);
  WcetCheckSink Wcet(TS, tinyWcets());
  MarkerSpecChecker Contracts(TS);
  TraceFanout Fan;
  Fan.add(Ts);
  Fan.add(Prot);
  Fan.add(Fun);
  Fan.add(Wcet);
  std::vector<std::size_t> FunOpen, ContractsOpen;
  for (std::size_t I = 0; I < TT.size(); ++I) {
    Fan.onMarker(TT.Tr[I], TT.Ts[I]);
    Contracts.step(TT.Tr[I]);
    FunOpen.push_back(Fun.pendingJobs());
    ContractsOpen.push_back(Contracts.pendingJobs());
  }
  Fan.onEnd(TT.EndTime);
  for (const CheckResult *R : {&Ts.result(), &Prot.result(), &Fun.result(),
                               &Wcet.result(), &Contracts.result()})
    EXPECT_TRUE(R->passed()) << R->describe();

  // Markers: ReadS ReadE | ReadS ReadE | Sel | Disp | Exec | Compl ...
  for (const std::vector<std::size_t> *Open : {&FunOpen, &ContractsOpen}) {
    EXPECT_EQ((*Open)[1], 1u) << "job pending after its successful read";
    EXPECT_EQ((*Open)[4], 1u) << "still pending through the selection";
    EXPECT_EQ((*Open)[5], 0u) << "ghost state retired at dispatch";
    EXPECT_EQ((*Open)[7], 0u) << "and still gone after M_Completion";
    EXPECT_EQ(Open->back(), 0u);
  }
}

TEST(CheckSinks, FailAtTheManifestingMarker) {
  TaskSet TS;
  addPeriodicTask(TS, "lo", 50, 1, 1000);
  addPeriodicTask(TS, "hi", 30, 2, 1000);

  {
    // A priority inversion fails Def. 3.2 and the dispatch contract at
    // the dispatch marker, index 7, and no earlier.
    FunctionalCheckSink Fun(TS, SchedPolicy::Npfp);
    MarkerSpecChecker Contracts(TS);
    Job Lo = mkJob(1, 0), Hi = mkJob(2, 1);
    TimedTrace TT = TraceBuilder()
                        .successRead(0, Lo, 10)
                        .successRead(0, Hi, 10)
                        .failedRead(0, 4)
                        .at(MarkerEvent::selection(), 3)
                        .at(MarkerEvent::dispatch(Lo), 2) // Inversion!
                        .finish();
    ASSERT_EQ(TT.size(), 8u);
    for (std::size_t I = 0; I < TT.size(); ++I) {
      EXPECT_TRUE(Fun.result().passed()) << "before marker " << I;
      EXPECT_TRUE(Contracts.result().passed()) << "before marker " << I;
      Fun.onMarker(TT.Tr[I], TT.Ts[I]);
      Contracts.step(TT.Tr[I]);
    }
    ASSERT_EQ(Fun.result().failures().size(), 1u);
    EXPECT_EQ(Fun.result().failures()[0].rfind("marker 7: ", 0), 0u);
    ASSERT_EQ(Contracts.result().failures().size(), 1u);
    EXPECT_EQ(Contracts.result().failures()[0].rfind("call 7: ", 0), 0u);
  }
  {
    // A failed read of 5 ticks exceeds FR = 4, but only the next marker
    // closes the read action.
    WcetCheckSink Wcet(TS, tinyWcets());
    Wcet.onMarker(MarkerEvent::readS(), 0);
    Wcet.onMarker(MarkerEvent::readE(0, std::nullopt), 5);
    EXPECT_TRUE(Wcet.result().passed());
    Wcet.onMarker(MarkerEvent::selection(), 5);
    ASSERT_FALSE(Wcet.result().passed());
    EXPECT_NE(Wcet.result().describe().find("failed read"),
              std::string::npos);
  }
  {
    // The last idle cycle is closed only by the end of the run.
    WcetCheckSink Wcet(TS, tinyWcets());
    Wcet.onMarker(MarkerEvent::readS(), 0);
    Wcet.onMarker(MarkerEvent::readE(0, std::nullopt), 4);
    Wcet.onMarker(MarkerEvent::selection(), 4);
    Wcet.onMarker(MarkerEvent::idling(), 7);
    EXPECT_TRUE(Wcet.result().passed());
    Wcet.onEnd(7 + 9); // Idle cycle of 9 > WcetIdling = 8.
    ASSERT_FALSE(Wcet.result().passed());
    EXPECT_NE(Wcet.result().describe().find("idle cycle"),
              std::string::npos);
  }
  {
    // A timestamp regression fails at the marker that goes backward.
    TimestampCheckSink Ts;
    Ts.onMarker(MarkerEvent::readS(), 100);
    EXPECT_TRUE(Ts.result().passed());
    Ts.onMarker(MarkerEvent::readE(0, std::nullopt), 90);
    ASSERT_FALSE(Ts.result().passed());
    EXPECT_EQ(Ts.result().failures()[0], "timestamps decrease at marker 1");
  }
}

TEST(WcetCheckSinkState, BoundedToOneOpenAction) {
  // WcetCheckSink checks each action as it closes; its entire per-trace
  // state is the segmenter's single open action. Feed a long run and
  // verify the verdict matches batch (the state bound is structural —
  // the sink owns no per-job containers at all).
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec WS;
  WS.NumSockets = 2;
  WS.Horizon = 15000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, WS);
  TimedTrace TT = runRossl(C, Arr, 30000);
  ASSERT_GT(TT.size(), 500u);

  WcetCheckSink Sink(C.Tasks, C.Wcets);
  replayTimedTrace(TT, Sink);
  CheckResult Got = Sink.take();
  CheckResult Want = checkWcetRespected(TT, C.Tasks, C.Wcets);
  EXPECT_EQ(Got.passed(), Want.passed());
  EXPECT_EQ(Got.checksPerformed(), Want.checksPerformed());
  EXPECT_EQ(Got.describe(), Want.describe());
}

TEST(StreamDeathTest, OutOfOrderDeliveryIntoTheBuilderAborts) {
  ScheduleCapture Cap;
  ScheduleBuilder B(1, Cap);
  B.onMarker(MarkerEvent::readS(), 100);
  EXPECT_DEATH(B.onMarker(MarkerEvent::readE(0, std::nullopt), 50),
               "timestamp order");
}

TEST(StreamDeathTest, EndBeforeLastMarkerAborts) {
  ScheduleCapture Cap;
  ScheduleBuilder B(1, Cap);
  B.onMarker(MarkerEvent::readS(), 100);
  EXPECT_DEATH(B.onEnd(40), "EndTime");
}
