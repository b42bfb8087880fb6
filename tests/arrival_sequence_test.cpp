//===- tests/arrival_sequence_test.cpp - Arrival-sequence unit tests ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/arrival_sequence.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

TaskSet onePeriodicTask(Duration Period) {
  TaskSet TS;
  addPeriodicTask(TS, "t", 10, 1, Period);
  return TS;
}

} // namespace

TEST(ArrivalSequence, SortsByTime) {
  ArrivalSequence Arr(2);
  Arr.addArrival(50, 1, /*Task=*/0);
  Arr.addArrival(10, 0, /*Task=*/0);
  Arr.addArrival(30, 0, /*Task=*/0);
  const auto &A = Arr.arrivals();
  ASSERT_EQ(A.size(), 3u);
  EXPECT_EQ(A[0].At, 10u);
  EXPECT_EQ(A[1].At, 30u);
  EXPECT_EQ(A[2].At, 50u);
}

TEST(ArrivalSequence, PerSocketView) {
  ArrivalSequence Arr(2);
  Arr.addArrival(10, 0, /*Task=*/0);
  Arr.addArrival(20, 1, /*Task=*/0);
  Arr.addArrival(30, 0, /*Task=*/0);
  EXPECT_EQ(Arr.arrivalsOn(0).size(), 2u);
  EXPECT_EQ(Arr.arrivalsOn(1).size(), 1u);
}

TEST(ArrivalSequence, FindMsg) {
  ArrivalSequence Arr(1);
  MsgId M = Arr.addArrival(42, 0, /*Task=*/0);
  auto Found = Arr.findMsg(M);
  ASSERT_TRUE(Found.has_value());
  EXPECT_EQ(Found->At, 42u);
  EXPECT_FALSE(Arr.findMsg(M + 1000).has_value());
}

TEST(ArrivalSequence, FindMsgUnknownId) {
  ArrivalSequence Arr(1);
  EXPECT_FALSE(Arr.findMsg(1).has_value());
  Arr.addArrival(30, 0, /*Task=*/0);
  Arr.addArrival(10, 0, /*Task=*/0);
  EXPECT_FALSE(Arr.findMsg(0).has_value());
  EXPECT_FALSE(Arr.findMsg(3).has_value());
  EXPECT_FALSE(Arr.findMsg(~MsgId(0)).has_value());
}

TEST(ArrivalSequence, FindMsgDuplicatedIdGivesTheFirstInSortedOrder) {
  ArrivalSequence Arr(2);
  Message M;
  M.Id = 7;
  M.Task = 0;
  Arr.addArrival(50, 0, M);
  M.Task = 1;
  Arr.addArrival(20, 1, M);
  M.Task = 2;
  Arr.addArrival(20, 0, M);
  auto Found = Arr.findMsg(7);
  ASSERT_TRUE(Found.has_value());
  // Sorted by (time, socket, id): the arrival at 20 on socket 0 leads.
  EXPECT_EQ(Found->At, 20u);
  EXPECT_EQ(Found->Socket, 0u);
  EXPECT_EQ(Found->Msg.Task, 2u);
}

TEST(ArrivalSequence, FindMsgSeesArrivalsAddedAfterALookup) {
  ArrivalSequence Arr(1);
  MsgId First = Arr.addArrival(40, 0, /*Task=*/0);
  ASSERT_TRUE(Arr.findMsg(First).has_value());
  MsgId Second = Arr.addArrival(5, 0, /*Task=*/1);
  auto Found = Arr.findMsg(Second);
  ASSERT_TRUE(Found.has_value());
  EXPECT_EQ(Found->At, 5u);
  EXPECT_EQ(Found->Msg.Task, 1u);
  ASSERT_TRUE(Arr.findMsg(First).has_value());
  EXPECT_EQ(Arr.findMsg(First)->At, 40u);
}

TEST(ArrivalSequence, CountInWindowIsHalfOpen) {
  ArrivalSequence Arr(1);
  Arr.addArrival(10, 0, /*Task=*/0);
  Arr.addArrival(20, 0, /*Task=*/0);
  EXPECT_EQ(Arr.countInWindow(0, 10, 20), 1u);
  EXPECT_EQ(Arr.countInWindow(0, 10, 21), 2u);
  EXPECT_EQ(Arr.countInWindow(0, 11, 20), 0u);
}

TEST(ArrivalSequence, RespectsCurvesAcceptsCompliant) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  for (Time T = 0; T < 1000; T += 100)
    Arr.addArrival(T, 0, 0);
  EXPECT_TRUE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, RespectsCurvesRejectsTooDense) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(50, 0, 0); // Only 50 apart: violates the period.
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, RespectsCurvesBoundaryExactPeriod) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(100, 0, 0); // Window length 101 admits ceil(101/100)=2.
  EXPECT_TRUE(Arr.respectsCurves(TS).passed());
  Arr.addArrival(199, 0, 0); // 3 arrivals in window of length 200: only 2.
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, RespectsCurvesRejectsUnknownTask) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, /*Task=*/7);
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, BurstCurveAllowsSimultaneousArrivals) {
  TaskSet TS;
  addBurstyTask(TS, "b", 10, 1, /*Burst=*/3, /*Rate=*/100);
  ArrivalSequence Arr(1);
  Arr.addArrival(5, 0, 0);
  Arr.addArrival(5, 0, 0);
  Arr.addArrival(5, 0, 0);
  EXPECT_TRUE(Arr.respectsCurves(TS).passed());
  Arr.addArrival(5, 0, 0); // Fourth in the same instant exceeds burst.
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, UniqueMsgIdsDetectsForgery) {
  ArrivalSequence Arr(1);
  Message M;
  M.Id = 7;
  M.Task = 0;
  Arr.addArrival(1, 0, M);
  EXPECT_TRUE(Arr.uniqueMsgIds().passed());
  Arr.addArrival(2, 0, M); // Same id again.
  EXPECT_FALSE(Arr.uniqueMsgIds().passed());
}

TEST(ArrivalSequence, LastArrivalTime) {
  ArrivalSequence Arr(1);
  EXPECT_EQ(Arr.lastArrivalTime(), 0u);
  Arr.addArrival(10, 0, 0);
  Arr.addArrival(500, 0, 0);
  EXPECT_EQ(Arr.lastArrivalTime(), 500u);
}
