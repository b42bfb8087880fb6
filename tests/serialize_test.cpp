//===- tests/serialize_test.cpp - Trace serialization round-trip tests ----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/serialize.h"

#include "sim/workload.h"
#include "trace/chunked_io.h"
#include "support/rng.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

/// Reads a v1 text with the library's one trace reader.
std::optional<TimedTrace> readV1(const std::string &Text,
                                 CheckResult *Diags = nullptr) {
  std::istringstream In(Text);
  return readTimedTrace(In, Diags);
}

/// The diagnostic of a v1 text that must be rejected.
std::string rejectV1(const std::string &Text) {
  CheckResult Diags;
  EXPECT_FALSE(readV1(Text, &Diags).has_value()) << Text;
  return Diags.describe();
}

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
  std::optional<TimedTrace> Parsed = readV1(Text, &Diags);
  ASSERT_TRUE(Parsed.has_value()) << Diags.describe();
  expectEqualTraces(TT, *Parsed);
}

TEST(Serialize, RoundTripsEmptyTrace) {
  TimedTrace TT;
  TT.EndTime = 42;
  std::optional<TimedTrace> Parsed =
      readV1(serializeTimedTrace(TT));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_TRUE(Parsed->empty());
  EXPECT_EQ(Parsed->EndTime, 42u);
}

TEST(Serialize, RejectsMissingHeader) {
  CheckResult Diags;
  EXPECT_FALSE(readV1("0 ReadS\nend 1\n", &Diags).has_value());
  EXPECT_NE(Diags.describe().find("header"), std::string::npos);
}

TEST(Serialize, RejectsMissingEnd) {
  CheckResult Diags;
  EXPECT_FALSE(
      readV1("refinedprosa-trace v1\n0 ReadS\n", &Diags)
          .has_value());
  EXPECT_NE(Diags.describe().find("end"), std::string::npos);
}

TEST(Serialize, RejectsUnknownMarker) {
  CheckResult Diags;
  EXPECT_FALSE(readV1(
                   "refinedprosa-trace v1\n5 Frobnicate\nend 9\n", &Diags)
                   .has_value());
}

TEST(Serialize, RejectsMalformedReadE) {
  EXPECT_FALSE(readV1(
                   "refinedprosa-trace v1\n5 ReadE 0 maybe\nend 9\n")
                   .has_value());
  EXPECT_FALSE(readV1(
                   "refinedprosa-trace v1\n5 ReadE 0 ok 1 2\nend 9\n")
                   .has_value());
}

TEST(Serialize, RejectsGarbageTimestamp) {
  EXPECT_FALSE(
      readV1("refinedprosa-trace v1\nabc ReadS\nend 9\n")
          .has_value());
}

TEST(Serialize, RejectsTrailingContentAfterEnd) {
  EXPECT_FALSE(readV1(
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
      readV1(serializeTimedTrace(TT));
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
    std::optional<TimedTrace> Parsed = readV1(Text, &Diags);
    ASSERT_TRUE(Parsed.has_value())
        << "round " << Round << ": " << Diags.describe();
    expectEqualTraces(*Parsed, TT);
    // And the rendering is a fixed point: serialize ∘ parse = id.
    EXPECT_EQ(serializeTimedTrace(*Parsed), Text) << "round " << Round;
  }
}

// The named divergences of the text grammar (DESIGN.md §9), as they
// touch the v1 format.

TEST(SerializeGrammar, CrlfReadsLikeLf) {
  // CR separates fields, on the end line too.
  std::optional<TimedTrace> TT = readV1(
      "refinedprosa-trace v1\r\n5 ReadE 1 ok 2 3 0 4\r\n\r\nend 9\r\n");
  ASSERT_TRUE(TT.has_value());
  ASSERT_EQ(TT->size(), 1u);
  EXPECT_EQ(TT->Tr[0].Socket, 1u);
  EXPECT_EQ(TT->Tr[0].J->ReadAt, 4u);
  EXPECT_EQ(TT->EndTime, 9u);
  // The header is matched field by field.
  EXPECT_TRUE(readV1("\trefinedprosa-trace  v1 \nend 9\n").has_value());
  EXPECT_NE(rejectV1("refinedprosa-trace v1 v2\nend 9\n")
                .find("line 1: missing or unknown header"),
            std::string::npos);
}

TEST(SerializeGrammar, VerticalTabAndFormFeedDoNotSeparate) {
  // Only space, tab and CR separate fields.
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n5\vReadS\nend 9\n")
                .find("line 2: expected a timestamp"),
            std::string::npos);
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n5 ReadS\fx\nend 9\n")
                .find("line 2: unknown marker kind 'ReadS\fx'"),
            std::string::npos);
}

TEST(SerializeGrammar, FieldAfterTheLastOneIsAnError) {
  // A line that lost its newline must not lose its second event.
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n6 ReadE 0 fail 7 ReadS\n"
                     "end 9\n")
                .find("line 2: unexpected '7' after the ReadE marker"),
            std::string::npos);
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n5 Dispatch 1 2 0 3 0 0\n"
                     "end 9\n")
                .find("line 2: unexpected '0' after the Dispatch marker"),
            std::string::npos);
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n5 ReadS\nend 9 10\n")
                .find("line 3: unexpected '10' after the end time"),
            std::string::npos);
}

TEST(SerializeGrammar, ThirtyTwoBitFieldsRejectWideValues) {
  // A wide socket or task id must not wrap to a valid one.
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n"
                     "6 ReadE 4294967296 ok 1 7 0 5\nend 9\n")
                .find("line 2: malformed ReadE"),
            std::string::npos);
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n"
                     "6 ReadE 0 ok 1 7 4294967296 5\nend 9\n")
                .find("line 2: malformed ReadE job fields"),
            std::string::npos);
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n"
                     "6 Execution 1 7 0 5 4294967296\nend 9\n")
                .find("line 2: malformed Execution job fields"),
            std::string::npos);
  // 2^32 - 1 still fits, and 64-bit fields take any digit count.
  std::optional<TimedTrace> TT =
      readV1("refinedprosa-trace v1\n6 ReadE 4294967295 ok "
             "0000000000000000000000001 7 4294967295 5\nend 9\n");
  ASSERT_TRUE(TT.has_value());
  EXPECT_EQ(TT->Tr[0].Socket, 4294967295u);
  EXPECT_EQ(TT->Tr[0].J->Task, 4294967295u);
  EXPECT_EQ(TT->Tr[0].J->Id, 1u);
}

TEST(SerializeGrammar, RepeatedEndLineIsRejected) {
  // The end line is a trace's last record.
  EXPECT_NE(rejectV1("refinedprosa-trace v1\n5 ReadS\nend 7\nend 9\n")
                .find("line 4: content after the end line"),
            std::string::npos);
}
