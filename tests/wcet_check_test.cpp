//===- tests/wcet_check_test.cpp - WCET-respect checker tests (§2.3) ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/wcet_check.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

TaskSet oneTask(Duration Wcet = 50) {
  TaskSet TS;
  addPeriodicTask(TS, "t", Wcet, 1, 1000);
  return TS;
}

/// A full job iteration with configurable segment lengths.
TimedTrace iterationTrace(Duration ReadLen, Duration PollLen,
                          Duration SelLen, Duration DispLen,
                          Duration ExecLen, Duration ComplLen) {
  Job J = mkJob(1, 0);
  return TraceBuilder()
      .successRead(0, J, ReadLen)
      .failedRead(0, PollLen)
      .at(MarkerEvent::selection(), SelLen)
      .at(MarkerEvent::dispatch(J), DispLen)
      .at(MarkerEvent::execution(J), ExecLen)
      .at(MarkerEvent::completion(J), ComplLen)
      .finish();
}

} // namespace

TEST(WcetCheck, AcceptsInBoundTrace) {
  // tinyWcets: FR=4 SR=10 Sel=3 Disp=2 Compl=5 Idling=8; C=50.
  TimedTrace TT = iterationTrace(10, 4, 3, 2, 50, 5);
  EXPECT_TRUE(checkWcetRespected(TT, oneTask(), tinyWcets()).passed());
}

TEST(WcetCheck, FlagsEachOverrunKind) {
  // An iterationTrace's markers: ReadS 0, ReadE 1, ReadS 2, ReadE 3,
  // Selection 4, Dispatch 5, Execution 6, Completion 7.
  struct Case {
    TimedTrace TT;
    const char *Want;
  };
  std::vector<Case> Cases = {
      {iterationTrace(11, 4, 3, 2, 50, 5),
       "successful read at marker 0 took 11 ticks, exceeding its WCET of 10"},
      {iterationTrace(10, 5, 3, 2, 50, 5),
       "failed read at marker 2 took 5 ticks, exceeding its WCET of 4"},
      {iterationTrace(10, 4, 4, 2, 50, 5),
       "selection at marker 4 took 4 ticks, exceeding its WCET of 3"},
      {iterationTrace(10, 4, 3, 3, 50, 5),
       "dispatch at marker 5 took 3 ticks, exceeding its WCET of 2"},
      {iterationTrace(10, 4, 3, 2, 51, 5),
       "callback of task t at marker 6 took 51 ticks, exceeding its WCET "
       "of 50"},
      {iterationTrace(10, 4, 3, 2, 50, 6),
       "completion at marker 7 took 6 ticks, exceeding its WCET of 5"},
      {TraceBuilder()
           .failedRead(0, 4)
           .at(MarkerEvent::selection(), 3)
           .at(MarkerEvent::idling(), 9)
           .finish(),
       "idle cycle at marker 3 took 9 ticks, exceeding its WCET of 8"},
      // An execution of an unknown task, and one without a job.
      {TraceBuilder()
           .failedRead(0, 4)
           .at(MarkerEvent::execution(mkJob(2, 5)), 1)
           .finish(),
       "execution action without a valid task at marker 2"},
      {TraceBuilder()
           .failedRead(0, 4)
           .at(MarkerEvent{MarkerKind::Execution, 0, std::nullopt}, 1)
           .finish(),
       "execution action without a valid task at marker 2"},
  };
  for (const Case &C : Cases) {
    CheckResult R = checkWcetRespected(C.TT, oneTask(), tinyWcets());
    EXPECT_EQ(R.failures(), std::vector<std::string>{C.Want});
  }
}

TEST(WcetCheck, FlagsIdleOverrun) {
  TimedTrace Ok = TraceBuilder()
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  EXPECT_TRUE(checkWcetRespected(Ok, oneTask(), tinyWcets()).passed());
  TimedTrace Bad = TraceBuilder()
                       .failedRead(0, 4)
                       .at(MarkerEvent::selection(), 3)
                       .at(MarkerEvent::idling(), 9)
                       .finish();
  EXPECT_FALSE(checkWcetRespected(Bad, oneTask(), tinyWcets()).passed());
}

TEST(WcetCheck, BoundaryExactWcetPasses) {
  // Every segment at exactly its WCET must pass (<=, not <).
  TimedTrace TT = iterationTrace(10, 4, 3, 2, 50, 5);
  EXPECT_TRUE(checkWcetRespected(TT, oneTask(50), tinyWcets()).passed());
}

TEST(Timestamps, AcceptsMonotone) {
  TimedTrace TT = iterationTrace(10, 4, 3, 2, 50, 5);
  EXPECT_TRUE(checkTimestamps(TT).passed());
}

TEST(Timestamps, RejectsDecreasing) {
  TimedTrace TT = iterationTrace(10, 4, 3, 2, 50, 5);
  std::swap(TT.Ts[1], TT.Ts[3]);
  EXPECT_FALSE(checkTimestamps(TT).passed());
}

TEST(Timestamps, RejectsLengthMismatch) {
  TimedTrace TT = iterationTrace(10, 4, 3, 2, 50, 5);
  TT.Ts.pop_back();
  EXPECT_FALSE(checkTimestamps(TT).passed());
}

TEST(Timestamps, RejectsEndTimeBeforeLastMarker) {
  TimedTrace TT = iterationTrace(10, 4, 3, 2, 50, 5);
  TT.EndTime = TT.Ts.back() - 1;
  EXPECT_FALSE(checkTimestamps(TT).passed());
}
