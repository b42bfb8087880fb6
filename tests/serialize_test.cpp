//===- tests/serialize_test.cpp - Trace serialization round-trip tests ----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/serialize.h"

#include "sim/workload.h"
#include "support/rng.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

void expectEqualTraces(const TimedTrace &A, const TimedTrace &B) {
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(A.EndTime, B.EndTime);
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A.Ts[I], B.Ts[I]) << I;
    EXPECT_EQ(A.Tr[I].Kind, B.Tr[I].Kind) << I;
    EXPECT_EQ(A.Tr[I].Socket, B.Tr[I].Socket) << I;
    ASSERT_EQ(A.Tr[I].J.has_value(), B.Tr[I].J.has_value()) << I;
    if (A.Tr[I].J) {
      EXPECT_EQ(A.Tr[I].J->Id, B.Tr[I].J->Id) << I;
      EXPECT_EQ(A.Tr[I].J->Msg, B.Tr[I].J->Msg) << I;
      EXPECT_EQ(A.Tr[I].J->Task, B.Tr[I].J->Task) << I;
      EXPECT_EQ(A.Tr[I].J->ReadAt, B.Tr[I].J->ReadAt) << I;
    }
  }
}

} // namespace

TEST(Serialize, RoundTripsSimulatedRun) {
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 3000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  TimedTrace TT = runRossl(C, Arr, 5000, CostModelKind::Uniform, 7);

  std::string Text = serializeTimedTrace(TT);
  CheckResult Diags;
  std::optional<TimedTrace> Parsed = parseTimedTrace(Text, &Diags);
  ASSERT_TRUE(Parsed.has_value()) << Diags.describe();
  expectEqualTraces(TT, *Parsed);
}

TEST(Serialize, RoundTripsEmptyTrace) {
  TimedTrace TT;
  TT.EndTime = 42;
  std::optional<TimedTrace> Parsed =
      parseTimedTrace(serializeTimedTrace(TT));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_TRUE(Parsed->empty());
  EXPECT_EQ(Parsed->EndTime, 42u);
}

TEST(Serialize, RejectsMissingHeader) {
  CheckResult Diags;
  EXPECT_FALSE(parseTimedTrace("0 ReadS\nend 1\n", &Diags).has_value());
  EXPECT_NE(Diags.describe().find("header"), std::string::npos);
}

TEST(Serialize, RejectsMissingEnd) {
  CheckResult Diags;
  EXPECT_FALSE(
      parseTimedTrace("refinedprosa-trace v1\n0 ReadS\n", &Diags)
          .has_value());
  EXPECT_NE(Diags.describe().find("end"), std::string::npos);
}

TEST(Serialize, RejectsUnknownMarker) {
  CheckResult Diags;
  EXPECT_FALSE(parseTimedTrace(
                   "refinedprosa-trace v1\n5 Frobnicate\nend 9\n", &Diags)
                   .has_value());
}

TEST(Serialize, RejectsMalformedReadE) {
  EXPECT_FALSE(parseTimedTrace(
                   "refinedprosa-trace v1\n5 ReadE 0 maybe\nend 9\n")
                   .has_value());
  EXPECT_FALSE(parseTimedTrace(
                   "refinedprosa-trace v1\n5 ReadE 0 ok 1 2\nend 9\n")
                   .has_value());
}

TEST(Serialize, RejectsGarbageTimestamp) {
  EXPECT_FALSE(
      parseTimedTrace("refinedprosa-trace v1\nabc ReadS\nend 9\n")
          .has_value());
}

TEST(Serialize, RejectsTrailingContentAfterEnd) {
  EXPECT_FALSE(parseTimedTrace(
                   "refinedprosa-trace v1\nend 9\n5 ReadS\n")
                   .has_value());
}

TEST(Serialize, ParsedTraceStillPassesCheckers) {
  // Serialization must preserve everything the checkers look at.
  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(5, 0, 1);
  TimedTrace TT = runRossl(C, Arr, 1000);
  std::optional<TimedTrace> Parsed =
      parseTimedTrace(serializeTimedTrace(TT));
  ASSERT_TRUE(Parsed.has_value());
  // Spot check: both jobs are still read.
  EXPECT_EQ(std::count_if(Parsed->Tr.begin(), Parsed->Tr.end(),
                          [](const MarkerEvent &E) {
                            return E.isSuccessfulRead();
                          }),
            2);
}

TEST(SerializeFuzz, RoundTripsCapMagnitudeTimestamps) {
  // Randomized traces whose timestamps sit at the top of the Time
  // range (cap magnitude, near TimeInfinity): the text format must
  // round-trip them exactly — no precision loss, no overflow in the
  // segment-length bookkeeping.
  SplitMix64 Rng(fuzzSeed(2026));
  for (int Round = 0; Round < 50; ++Round) {
    TimedTrace TT;
    // Start the clock in the upper half of the range some rounds.
    Time Cursor = Rng.nextInRange(0, 1)
                      ? TimeInfinity - Rng.nextInRange(1000, 100000)
                      : Rng.nextInRange(0, 1000000);
    std::size_t N = Rng.nextInRange(1, 12);
    for (std::size_t I = 0; I < N; ++I) {
      switch (Rng.nextInRange(0, 3)) {
      case 0:
        TT.Tr.push_back(MarkerEvent::readS());
        break;
      case 1:
        TT.Tr.push_back(MarkerEvent::readE(
            static_cast<SocketId>(Rng.nextInRange(0, 7)), std::nullopt));
        break;
      case 2: {
        Job J = mkJob(Rng.nextInRange(0, ~0ull - 1),
                      static_cast<TaskId>(Rng.nextInRange(0, 9)),
                      Rng.nextInRange(0, ~0ull - 1));
        J.ReadAt = Cursor;
        TT.Tr.push_back(MarkerEvent::dispatch(J));
        break;
      }
      default:
        TT.Tr.push_back(MarkerEvent::idling());
        break;
      }
      TT.Ts.push_back(Cursor);
      Cursor = satAdd(Cursor, Rng.nextInRange(0, 5000));
      if (Cursor == TimeInfinity)
        Cursor = TimeInfinity - 1; // Keep EndTime a finite instant.
    }
    TT.EndTime = Cursor;

    std::string Text = serializeTimedTrace(TT);
    CheckResult Diags;
    std::optional<TimedTrace> Parsed = parseTimedTrace(Text, &Diags);
    ASSERT_TRUE(Parsed.has_value())
        << "round " << Round << ": " << Diags.describe();
    expectEqualTraces(*Parsed, TT);
    // And the rendering is a fixed point: serialize ∘ parse = id.
    EXPECT_EQ(serializeTimedTrace(*Parsed), Text) << "round " << Round;
  }
}
