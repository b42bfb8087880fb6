//===- tests/functional_test.cpp - Def. 3.2 functional-correctness tests --===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/functional.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// tau0 has priority 1, tau1 has priority 2 (higher).
TaskSet twoPrioTasks() {
  TaskSet TS;
  addPeriodicTask(TS, "lo", 50, 1, 1000);
  addPeriodicTask(TS, "hi", 30, 2, 1000);
  return TS;
}

} // namespace

TEST(Functional, AcceptsPriorityOrderedDispatch) {
  TaskSet TS = twoPrioTasks();
  Job Lo = mkJob(1, 0), Hi = mkJob(2, 1);
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, Lo),
      MarkerEvent::readS(), MarkerEvent::readE(0, Hi),
      MarkerEvent::readS(), MarkerEvent::readE(0, std::nullopt),
      MarkerEvent::selection(), MarkerEvent::dispatch(Hi),
      MarkerEvent::execution(Hi), MarkerEvent::completion(Hi),
      MarkerEvent::readS(), MarkerEvent::readE(0, std::nullopt),
      MarkerEvent::selection(), MarkerEvent::dispatch(Lo),
      MarkerEvent::execution(Lo), MarkerEvent::completion(Lo),
  };
  EXPECT_TRUE(checkFunctionalCorrectness(Tr, TS).passed());
}

TEST(Functional, RejectsPriorityInversion) {
  TaskSet TS = twoPrioTasks();
  Job Lo = mkJob(1, 0), Hi = mkJob(2, 1);
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, Lo),
      MarkerEvent::readS(), MarkerEvent::readE(0, Hi),
      MarkerEvent::selection(),
      MarkerEvent::dispatch(Lo), // Low priority first: inversion.
  };
  CheckResult R = checkFunctionalCorrectness(Tr, TS);
  ASSERT_FALSE(R.passed());
  EXPECT_NE(R.describe().find("highest-priority"), std::string::npos);
}

TEST(Functional, AllowsEqualPriorityTieBreaking) {
  TaskSet TS;
  addPeriodicTask(TS, "a", 10, 1, 100);
  addPeriodicTask(TS, "b", 10, 1, 100);
  Job A = mkJob(1, 0), B = mkJob(2, 1);
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, A),
      MarkerEvent::readS(), MarkerEvent::readE(0, B),
      MarkerEvent::selection(), MarkerEvent::dispatch(B), // Either is fine.
  };
  EXPECT_TRUE(checkFunctionalCorrectness(Tr, TS).passed());
}

TEST(Functional, RejectsDispatchOfUnreadJob) {
  TaskSet TS = twoPrioTasks();
  Trace Tr = {
      MarkerEvent::selection(),
      MarkerEvent::dispatch(mkJob(99, 0)),
  };
  CheckResult R = checkFunctionalCorrectness(Tr, TS);
  ASSERT_FALSE(R.passed());
  EXPECT_NE(R.describe().find("not pending"), std::string::npos);
}

TEST(Functional, RejectsDoubleDispatch) {
  TaskSet TS = twoPrioTasks();
  Job J = mkJob(1, 0);
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, J),
      MarkerEvent::selection(), MarkerEvent::dispatch(J),
      MarkerEvent::selection(), MarkerEvent::dispatch(J),
  };
  EXPECT_FALSE(checkFunctionalCorrectness(Tr, TS).passed());
}

TEST(Functional, RejectsIdlingWithPendingJobs) {
  TaskSet TS = twoPrioTasks();
  Job J = mkJob(1, 0);
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, J),
      MarkerEvent::selection(),
      MarkerEvent::idling(), // J is pending!
  };
  CheckResult R = checkFunctionalCorrectness(Tr, TS);
  ASSERT_FALSE(R.passed());
  EXPECT_NE(R.describe().find("idling"), std::string::npos);
}

TEST(Functional, AcceptsIdlingAfterAllDispatched) {
  TaskSet TS = twoPrioTasks();
  Job J = mkJob(1, 0);
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, J),
      MarkerEvent::selection(), MarkerEvent::dispatch(J),
      MarkerEvent::execution(J), MarkerEvent::completion(J),
      MarkerEvent::readS(), MarkerEvent::readE(0, std::nullopt),
      MarkerEvent::selection(), MarkerEvent::idling(),
  };
  EXPECT_TRUE(checkFunctionalCorrectness(Tr, TS).passed());
}

TEST(Functional, RejectsDuplicateJobIds) {
  TaskSet TS = twoPrioTasks();
  Job J1 = mkJob(1, 0, /*Msg=*/10);
  Job J2 = mkJob(1, 1, /*Msg=*/11); // Same JobId, different message.
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, J1),
      MarkerEvent::readS(), MarkerEvent::readE(0, J2),
  };
  CheckResult R = checkFunctionalCorrectness(Tr, TS);
  ASSERT_FALSE(R.passed());
  EXPECT_NE(R.describe().find("uniqueness"), std::string::npos);
}

TEST(Functional, RejectsJobOfUnknownTask) {
  TaskSet TS = twoPrioTasks();
  Trace Tr = {
      MarkerEvent::readS(), MarkerEvent::readE(0, mkJob(1, /*Task=*/9)),
  };
  EXPECT_FALSE(checkFunctionalCorrectness(Tr, TS).passed());
}
