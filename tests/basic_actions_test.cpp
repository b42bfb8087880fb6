//===- tests/basic_actions_test.cpp - Basic-action segmentation tests -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/basic_actions.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

TEST(BasicActions, CoalescesReadMarkers) {
  // One failed read (4 ticks), selection (3), idling (8).
  TimedTrace TT = TraceBuilder()
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  std::vector<BasicAction> A = segmentBasicActions(TT);
  ASSERT_EQ(A.size(), 3u);

  EXPECT_EQ(A[0].Kind, BasicActionKind::Read);
  EXPECT_FALSE(A[0].J.has_value()); // Failed read: j⊥ = ⊥.
  EXPECT_EQ(A[0].Start, 0u);
  EXPECT_EQ(A[0].End, 4u);
  EXPECT_EQ(A[0].len(), 4u);

  EXPECT_EQ(A[1].Kind, BasicActionKind::Selection);
  EXPECT_FALSE(A[1].J.has_value()); // Resolved to Selection ⊥.
  EXPECT_EQ(A[1].len(), 3u);

  EXPECT_EQ(A[2].Kind, BasicActionKind::Idling);
  EXPECT_EQ(A[2].len(), 8u);
  EXPECT_EQ(A[2].End, TT.EndTime);
}

TEST(BasicActions, ResolvesSelectionJobByLookahead) {
  Job J = mkJob(1, 0);
  TimedTrace TT = TraceBuilder()
                      .successRead(0, J, 10)
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(J), 2)
                      .at(MarkerEvent::execution(J), 50)
                      .at(MarkerEvent::completion(J), 5)
                      .finish();
  std::vector<BasicAction> A = segmentBasicActions(TT);
  ASSERT_EQ(A.size(), 6u);

  EXPECT_EQ(A[0].Kind, BasicActionKind::Read);
  ASSERT_TRUE(A[0].J.has_value());
  EXPECT_EQ(A[0].J->Id, 1u);
  EXPECT_EQ(A[0].len(), 10u);

  EXPECT_EQ(A[1].Kind, BasicActionKind::Read);
  EXPECT_FALSE(A[1].J.has_value());

  EXPECT_EQ(A[2].Kind, BasicActionKind::Selection);
  ASSERT_TRUE(A[2].J.has_value()) << "lookahead must resolve Selection j";
  EXPECT_EQ(A[2].J->Id, 1u);

  EXPECT_EQ(A[3].Kind, BasicActionKind::Disp);
  EXPECT_EQ(A[3].len(), 2u);
  EXPECT_EQ(A[4].Kind, BasicActionKind::Exec);
  EXPECT_EQ(A[4].len(), 50u);
  EXPECT_EQ(A[5].Kind, BasicActionKind::Compl);
  EXPECT_EQ(A[5].len(), 5u);
}

TEST(BasicActions, ActionsTileTheTimeline) {
  Job J = mkJob(1, 0);
  TimedTrace TT = TraceBuilder()
                      .successRead(0, J, 10)
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::dispatch(J), 2)
                      .at(MarkerEvent::execution(J), 50)
                      .at(MarkerEvent::completion(J), 5)
                      .failedRead(0, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  std::vector<BasicAction> A = segmentBasicActions(TT);
  // Contiguity: every action starts where the previous one ended.
  for (std::size_t I = 1; I < A.size(); ++I)
    EXPECT_EQ(A[I].Start, A[I - 1].End) << "gap before action " << I;
  EXPECT_EQ(A.front().Start, 0u);
  EXPECT_EQ(A.back().End, TT.EndTime);
  // Marker spans tile the trace as well.
  for (std::size_t I = 1; I < A.size(); ++I)
    EXPECT_EQ(A[I].FirstMarker, A[I - 1].EndMarker);
}

TEST(BasicActions, SocketIsRecorded) {
  TimedTrace TT = TraceBuilder()
                      .failedRead(0, 4)
                      .failedRead(1, 4)
                      .at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  std::vector<BasicAction> A = segmentBasicActions(TT);
  ASSERT_GE(A.size(), 2u);
  EXPECT_EQ(A[0].Socket, 0u);
  EXPECT_EQ(A[1].Socket, 1u);
}

TEST(BasicActions, EmptyTrace) {
  TimedTrace TT;
  EXPECT_TRUE(segmentBasicActions(TT).empty());
}

TEST(BasicActions, TraceEndingOnBareReadSEndsWithAFailedRead) {
  // ReadS, ReadE(j1), ReadS: the run was cut after a read started (e.g.
  // a file cut mid-read). The vectors are sized exactly, so reading
  // past the last marker trips ASan.
  TimedTrace TT;
  TT.Tr = {MarkerEvent::readS(), MarkerEvent::readE(0, mkJob(1, 0)),
           MarkerEvent::readS()};
  TT.Ts = {0, 10, 10};
  TT.EndTime = 14;
  std::vector<BasicAction> A = segmentBasicActions(TT);
  ASSERT_EQ(A.size(), 2u);

  EXPECT_EQ(A[0].Kind, BasicActionKind::Read);
  ASSERT_TRUE(A[0].J.has_value());
  EXPECT_EQ(A[0].J->Id, 1u);
  EXPECT_EQ(A[0].Start, 0u);
  EXPECT_EQ(A[0].End, 10u);
  EXPECT_EQ(A[0].FirstMarker, 0u);
  EXPECT_EQ(A[0].EndMarker, 2u);

  EXPECT_EQ(A[1].Kind, BasicActionKind::Read);
  EXPECT_FALSE(A[1].J.has_value()) << "a bare M_ReadS is a failed read";
  EXPECT_EQ(A[1].Start, 10u);
  EXPECT_EQ(A[1].End, 14u);
  EXPECT_EQ(A[1].FirstMarker, 2u);
  EXPECT_EQ(A[1].EndMarker, 3u);
}
