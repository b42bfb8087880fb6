//===- tests/trace_misc_test.cpp - Marker and trace printing tests --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/trace.h"

#include "trace/marker.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

TEST(MarkerPrinting, AllKinds) {
  EXPECT_EQ(toString(MarkerEvent::readS()), "M_ReadS");
  EXPECT_EQ(toString(MarkerEvent::readE(2, std::nullopt)),
            "M_ReadE(s2, ⊥)");
  EXPECT_EQ(toString(MarkerEvent::readE(0, mkJob(7, 0))),
            "M_ReadE(s0, j7)");
  EXPECT_EQ(toString(MarkerEvent::selection()), "M_Selection");
  EXPECT_EQ(toString(MarkerEvent::dispatch(mkJob(3, 0))),
            "M_Dispatch(j3)");
  EXPECT_EQ(toString(MarkerEvent::execution(mkJob(3, 0))),
            "M_Execution(j3)");
  EXPECT_EQ(toString(MarkerEvent::completion(mkJob(3, 0))),
            "M_Completion(j3)");
  EXPECT_EQ(toString(MarkerEvent::idling()), "M_Idling");
}

TEST(MarkerPredicates, ReadClassification) {
  EXPECT_TRUE(MarkerEvent::readE(0, std::nullopt).isFailedRead());
  EXPECT_FALSE(MarkerEvent::readE(0, std::nullopt).isSuccessfulRead());
  EXPECT_TRUE(MarkerEvent::readE(0, mkJob(1, 0)).isSuccessfulRead());
  EXPECT_FALSE(MarkerEvent::readS().isFailedRead());
  EXPECT_FALSE(MarkerEvent::dispatch(mkJob(1, 0)).isSuccessfulRead());
}

TEST(TraceRendering, TruncatesLongTraces) {
  TraceBuilder B;
  for (int I = 0; I < 30; ++I)
    B.failedRead(0, 4);
  TimedTrace TT = B.at(MarkerEvent::selection(), 3)
                      .at(MarkerEvent::idling(), 8)
                      .finish();
  std::string Full = renderTimedTrace(TT);
  std::string Short = renderTimedTrace(TT, 5);
  EXPECT_LT(Short.size(), Full.size());
  EXPECT_NE(Short.find("more)"), std::string::npos);
  EXPECT_NE(Full.find("end="), std::string::npos);
}

TEST(TraceRendering, EmptyTrace) {
  TimedTrace TT;
  TT.EndTime = 7;
  EXPECT_EQ(renderTimedTrace(TT), "end=7\n");
}
