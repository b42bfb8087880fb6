//===- tests/arrival_log_test.cpp - Arrival-log + scale tests -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/arrival_log.h"

#include "adequacy/pipeline.h"
#include "sim/workload.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace rprosa;
using namespace rprosa::testutil;

TEST(ArrivalLog, RoundTrips) {
  ArrivalSequence Arr(3);
  Arr.addArrival(0, 0, 0, 16);
  Arr.addArrival(1500, 2, 1, 64);
  Arr.addArrival(999, 1, 0, 8);
  std::string Text = serializeArrivalLog(Arr);
  CheckResult Diags;
  std::optional<ArrivalSequence> Parsed =
      parseArrivalLog(Text, 3, /*NumTasks=*/2, &Diags);
  ASSERT_TRUE(Parsed.has_value()) << Diags.describe();
  const auto &A = Arr.arrivals();
  const auto &B = Parsed->arrivals();
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].At, B[I].At);
    EXPECT_EQ(A[I].Socket, B[I].Socket);
    EXPECT_EQ(A[I].Msg.Task, B[I].Msg.Task);
    EXPECT_EQ(A[I].Msg.PayloadLen, B[I].Msg.PayloadLen);
  }
}

TEST(ArrivalLog, AcceptsTimeSuffixesAndComments) {
  const char *Text = "refinedprosa-arrivals v1\n"
                     "# a recorded burst\n"
                     "0ns   0 0 16\n"
                     "2us   0 1      # inline comment\n"
                     "\n"
                     "3ms   0 0\n"
                     "4ms   0 1 4294967295 # the largest payload\n";
  std::optional<ArrivalSequence> Arr = parseArrivalLog(Text, 1, 2);
  ASSERT_TRUE(Arr.has_value());
  ASSERT_EQ(Arr->arrivals().size(), 4u);
  EXPECT_EQ(Arr->arrivals()[1].At, 2000u);
  EXPECT_EQ(Arr->arrivals()[2].At, 3000000u);
  EXPECT_EQ(Arr->arrivals()[1].Msg.PayloadLen, 16u); // Default payload.
  EXPECT_EQ(Arr->arrivals()[3].Msg.PayloadLen, 4294967295u);
}

TEST(ArrivalLog, RejectsMalformed) {
  CheckResult D1;
  EXPECT_FALSE(parseArrivalLog("0 0 0\n", 1, 1, &D1).has_value());
  EXPECT_NE(D1.describe().find("header"), std::string::npos);

  EXPECT_FALSE(parseArrivalLog("refinedprosa-arrivals v1\nabc 0 0\n", 1, 1)
                   .has_value());
  EXPECT_FALSE(parseArrivalLog("refinedprosa-arrivals v1\n5ns 0\n", 1, 1)
                   .has_value());
  CheckResult D2;
  EXPECT_FALSE(parseArrivalLog("refinedprosa-arrivals v1\n5ns 3 0\n", 2,
                               1, &D2)
                   .has_value());
  EXPECT_NE(D2.describe().find("out of range"), std::string::npos);

  // Each line below follows one good line, so every diagnostic names
  // line 3. A task id the task set lacks would index past it in the
  // scheduler; a sign or an overflow must not wrap into a valid id.
  const std::pair<const char *, const char *> Cases[] = {
      {"0ns 0 3 16", "task 3 out of range (have 3)"},
      {"0ns 0 7 16", "task 7 out of range (have 3)"},
      {"0ns 0 -3 16", "malformed task '-3'"},
      {"0ns 0 4294967296 16", "task 4294967296 out of range (have 3)"},
      {"0ns 0 99999999999999999999 16", "malformed task"},
      {"0ns -1 0 16", "malformed socket '-1'"},
      {"0ns +1 0 16", "malformed socket '+1'"},
      {"0ns 0x1 0 16", "malformed socket '0x1'"},
      {"0ns 0 1 abc", "malformed payload 'abc'"},
      {"0ns 0 1 -16", "malformed payload '-16'"},
      {"0ns 0 1 4294967312", "payload 4294967312 exceeds 4294967295"},
      {"0ns 0 1 16 extra", "unexpected 'extra' after the payload"},
      {"0ns 0 1 16 17", "unexpected '17' after the payload"},
  };
  for (const auto &[Line, Why] : Cases) {
    std::string Text = "refinedprosa-arrivals v1\n0ns 0 0 16\n" +
                       std::string(Line) + "\n";
    CheckResult Diags;
    EXPECT_FALSE(parseArrivalLog(Text, 2, 3, &Diags).has_value()) << Line;
    EXPECT_NE(Diags.describe().find("line 3: "), std::string::npos)
        << Line << ": " << Diags.describe();
    EXPECT_NE(Diags.describe().find(Why), std::string::npos)
        << Line << ": " << Diags.describe();
  }
}

// The named divergences of the text grammar (DESIGN.md §9), as they
// touch the arrival log.

TEST(ArrivalLogGrammar, CrlfReadsLikeLf) {
  // CR separates fields, in the header too.
  std::optional<ArrivalSequence> Arr = parseArrivalLog(
      "refinedprosa-arrivals v1\r\n# c\r\n2us 0 1 64\r\n\r\n", 1, 2);
  ASSERT_TRUE(Arr.has_value());
  ASSERT_EQ(Arr->arrivals().size(), 1u);
  EXPECT_EQ(Arr->arrivals()[0].At, 2000u);
  EXPECT_EQ(Arr->arrivals()[0].Msg.PayloadLen, 64u);
  // The header is matched field by field.
  EXPECT_TRUE(
      parseArrivalLog("refinedprosa-arrivals\tv1 \n0 0 0\n", 1, 1)
          .has_value());
}

TEST(ArrivalLogGrammar, VerticalTabDoesNotSeparate) {
  // Only space, tab and CR separate fields.
  CheckResult Diags;
  EXPECT_FALSE(parseArrivalLog("refinedprosa-arrivals v1\n0ns\v0 0\n", 1,
                               1, &Diags)
                   .has_value());
  EXPECT_NE(Diags.describe().find("line 2: malformed time '0ns\v0'"),
            std::string::npos)
      << Diags.describe();
}

TEST(ArrivalLogGrammar, TimeLiteralsTakeAnyDigitCountButNeverSaturate) {
  // Any digit count makes a number, and a literal never saturates to
  // TimeInfinity.
  std::optional<ArrivalSequence> Arr = parseArrivalLog(
      "refinedprosa-arrivals v1\n00000000000000000000002us 0 0\n"
      "18446744073709551614 0 0\n",
      1, 1);
  ASSERT_TRUE(Arr.has_value());
  EXPECT_EQ(Arr->arrivals()[0].At, 2000u);
  EXPECT_EQ(Arr->arrivals()[1].At, TimeInfinity - 1);
  for (const char *Lit : {"18446744073709552s", "18446744073709551615"}) {
    CheckResult Diags;
    EXPECT_FALSE(parseArrivalLog("refinedprosa-arrivals v1\n" +
                                     std::string(Lit) + " 0 0\n",
                                 1, 1, &Diags)
                     .has_value())
        << Lit;
    EXPECT_NE(Diags.describe().find("line 2: malformed time"),
              std::string::npos)
        << Diags.describe();
  }
}

TEST(ArrivalLog, ReplayedLogDrivesTheFullPipeline) {
  // Record a generated workload, replay it from text, and verify
  // Thm. 5.1 on the replayed run.
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 5000;
  ArrivalSequence Original = generateWorkload(C.Tasks, Spec);
  std::optional<ArrivalSequence> Replayed =
      parseArrivalLog(serializeArrivalLog(Original), 2, C.Tasks.size());
  ASSERT_TRUE(Replayed.has_value());

  AdequacySpec ASpec;
  ASpec.Client = C;
  ASpec.Arr = *Replayed;
  ASpec.Limits.Horizon = 60000;
  AdequacyReport Rep = runAdequacy(ASpec);
  EXPECT_TRUE(Rep.assumptionsHold()) << Rep.summary();
  EXPECT_TRUE(Rep.theoremHolds());
}

TEST(Scale, LongRunStaysLinearish) {
  // A soak test: ~500k markers through the full pipeline. Guards
  // against accidentally quadratic checkers.
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 400000;
  Spec.Style = WorkloadStyle::GreedyDense;
  AdequacySpec ASpec;
  ASpec.Client = C;
  ASpec.Arr = generateWorkload(C.Tasks, Spec);
  ASpec.Limits.Horizon = 500000;

  auto Start = std::chrono::steady_clock::now();
  AdequacyReport Rep = runAdequacy(ASpec);
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();

  EXPECT_TRUE(Rep.assumptionsHold());
  EXPECT_TRUE(Rep.invariantsHold());
  EXPECT_TRUE(Rep.conclusionHolds());
  EXPECT_GT(Rep.TT.size(), 100000u) << "soak run too small to be a test";
  // Generous budget: the pipeline handles ~1M markers/s even in debug-
  // ish builds; 30s means something went quadratic.
  EXPECT_LT(Elapsed, 30000) << "pipeline took " << Elapsed << "ms";
}
