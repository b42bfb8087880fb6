//===- tests/spec_parser_test.cpp - System-spec parser tests --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "adequacy/spec_parser.h"

#include <gtest/gtest.h>

using namespace rprosa;

TEST(TimeLiteral, SuffixesAndDefaults) {
  EXPECT_EQ(parseTimeLiteral("42"), 42u);
  EXPECT_EQ(parseTimeLiteral("42ns"), 42u);
  EXPECT_EQ(parseTimeLiteral("3us"), 3000u);
  EXPECT_EQ(parseTimeLiteral("7ms"), 7000000u);
  EXPECT_EQ(parseTimeLiteral("2s"), 2000000000u);
}

TEST(TimeLiteral, RejectsGarbage) {
  EXPECT_FALSE(parseTimeLiteral("").has_value());
  EXPECT_FALSE(parseTimeLiteral("ms").has_value());
  EXPECT_FALSE(parseTimeLiteral("12parsecs").has_value());
  EXPECT_FALSE(parseTimeLiteral("-5ms").has_value());
  EXPECT_FALSE(parseTimeLiteral("1.5ms").has_value());
}

TEST(TimeLiteral, TakesAnyDigitCountButNeverSaturates) {
  // Any digit count makes a number, and a literal whose scaled value
  // reaches TimeInfinity is an error, not a saturated bound.
  EXPECT_EQ(parseTimeLiteral("0000000000000000000000042ms"), 42000000u);
  EXPECT_EQ(parseTimeLiteral("18446744073709551614"), TimeInfinity - 1);
  EXPECT_FALSE(parseTimeLiteral("18446744073709551615").has_value());
  EXPECT_FALSE(parseTimeLiteral("18446744073709552us").has_value());
  EXPECT_FALSE(parseTimeLiteral("9999999999999999999s").has_value());
  EXPECT_FALSE(parseTimeLiteral("99999999999999999999999").has_value());
}

namespace {

const char *GoodSpec = R"(
# a comment
system testbox
sockets 2
policy edf
wcets fr 4 sr 10 sel 3 disp 2 compl 5 idle 8
task a wcet 30us prio 2 deadline 1ms curve periodic 10ms
task b wcet 50us prio 1 deadline 5ms curve bucket 3 20ms
task c wcet 10us prio 3 deadline 2ms curve periodic-jitter 5ms 100us
)";

} // namespace

TEST(SpecParser, ParsesFullSpec) {
  CheckResult Diags;
  std::optional<SystemSpec> Spec = parseSystemSpec(GoodSpec, &Diags);
  ASSERT_TRUE(Spec.has_value()) << Diags.describe();
  EXPECT_EQ(Spec->Name, "testbox");
  EXPECT_EQ(Spec->Client.NumSockets, 2u);
  EXPECT_EQ(Spec->Client.Policy, SchedPolicy::Edf);
  EXPECT_EQ(Spec->Client.Wcets.FailedRead, 4u);
  EXPECT_EQ(Spec->Client.Wcets.Idling, 8u);
  ASSERT_EQ(Spec->Client.Tasks.size(), 3u);
  const Task &A = Spec->Client.Tasks.task(0);
  EXPECT_EQ(A.Name, "a");
  EXPECT_EQ(A.Wcet, 30000u);
  EXPECT_EQ(A.Prio, 2u);
  EXPECT_EQ(A.Deadline, 1000000u);
  EXPECT_EQ(A.Curve->eval(1), 1u);
  // The parsed client passes validation end to end.
  EXPECT_TRUE(validateClient(Spec->Client).passed());
}

TEST(SpecParser, DefaultsArePolicyNpfpAndUnnamed) {
  std::optional<SystemSpec> Spec = parseSystemSpec(
      "sockets 1\nwcets fr 4 sr 10 sel 3 disp 2 compl 5 idle 8\n"
      "task t wcet 5 prio 1 curve periodic 100\n");
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Name, "unnamed");
  EXPECT_EQ(Spec->Client.Policy, SchedPolicy::Npfp);
  EXPECT_EQ(Spec->Client.NumSockets, 1u);
}

TEST(SpecParser, RejectsMissingWcets) {
  CheckResult Diags;
  EXPECT_FALSE(parseSystemSpec("sockets 1\n"
                               "task t wcet 5 prio 1 curve periodic 100\n",
                               &Diags)
                   .has_value());
  EXPECT_NE(Diags.describe().find("wcets"), std::string::npos);
}

TEST(SpecParser, RejectsNoTasks) {
  EXPECT_FALSE(parseSystemSpec(
                   "sockets 1\nwcets fr 4 sr 10 sel 3 disp 2 compl 5 "
                   "idle 8\n")
                   .has_value());
}

TEST(SpecParser, RejectsUnknownDirective) {
  CheckResult Diags;
  EXPECT_FALSE(parseSystemSpec("frobnicate 3\n", &Diags).has_value());
  EXPECT_NE(Diags.describe().find("frobnicate"), std::string::npos);
}

TEST(SpecParser, RejectsBadCurve) {
  CheckResult Diags;
  EXPECT_FALSE(
      parseSystemSpec("sockets 1\nwcets fr 4 sr 10 sel 3 disp 2 compl "
                      "5 idle 8\ntask t wcet 5 prio 1 curve spline 3\n",
                      &Diags)
          .has_value());
  EXPECT_NE(Diags.describe().find("spline"), std::string::npos);
}

TEST(SpecParser, RejectsTaskWithoutWcet) {
  EXPECT_FALSE(parseSystemSpec(
                   "sockets 1\nwcets fr 4 sr 10 sel 3 disp 2 compl 5 "
                   "idle 8\ntask t prio 1 curve periodic 100\n")
                   .has_value());
}

TEST(SpecParser, RejectsBadPolicy) {
  EXPECT_FALSE(parseSystemSpec("policy round-robin\n").has_value());
}

TEST(SpecParser, RejectsBadSocketCount) {
  EXPECT_FALSE(parseSystemSpec("sockets 0\n").has_value());
  EXPECT_FALSE(parseSystemSpec("sockets 1000000\n").has_value());
}

TEST(SpecParser, CommentsAndBlanksIgnored) {
  std::optional<SystemSpec> Spec = parseSystemSpec(
      "# header\n\n   \nsockets 1 # trailing\nwcets fr 4 sr 10 sel 3 "
      "disp 2 compl 5 idle 8\ntask t wcet 5 prio 1 curve periodic "
      "100\n");
  EXPECT_TRUE(Spec.has_value());
}

// The named divergences of the text grammar (DESIGN.md §9), as they
// touch the spec format.

namespace {

/// The diagnostic of a spec that must be rejected.
std::string rejectSpec(const std::string &Text) {
  CheckResult Diags;
  EXPECT_FALSE(parseSystemSpec(Text, &Diags).has_value()) << Text;
  return Diags.describe();
}

const std::string Wcets = "wcets fr 4 sr 10 sel 3 disp 2 compl 5 idle 8\n";

} // namespace

TEST(SpecGrammar, CrlfReadsLikeLf) {
  std::string Lf = std::string(GoodSpec), Crlf;
  for (char C : Lf)
    Crlf += C == '\n' ? std::string("\r\n") : std::string(1, C);
  std::optional<SystemSpec> A = parseSystemSpec(Lf);
  std::optional<SystemSpec> B = parseSystemSpec(Crlf);
  ASSERT_TRUE(A.has_value());
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Name, A->Name);
  EXPECT_EQ(B->Client.Policy, A->Client.Policy);
  ASSERT_EQ(B->Client.Tasks.size(), A->Client.Tasks.size());
  EXPECT_EQ(B->Client.Tasks.task(2).Curve->describe(),
            A->Client.Tasks.task(2).Curve->describe());
}

TEST(SpecGrammar, VerticalTabDoesNotSeparate) {
  // Only space, tab and CR separate fields.
  EXPECT_NE(rejectSpec("sockets\v2\n").find(
                "line 1: unknown directive 'sockets\v2'"),
            std::string::npos);
}

TEST(SpecGrammar, FieldAfterTheLastOneIsAnError) {
  // Extra fields are damage, not padding.
  EXPECT_NE(rejectSpec("system a b\n").find(
                "line 1: unexpected 'b' after the system name"),
            std::string::npos);
  EXPECT_NE(rejectSpec("sockets 2 4\n").find(
                "line 1: unexpected '4' after the socket count"),
            std::string::npos);
  EXPECT_NE(rejectSpec("# c\npolicy edf fifo\n").find(
                "line 2: unexpected 'fifo' after the policy"),
            std::string::npos);
  // A comment is not a field.
  EXPECT_TRUE(parseSystemSpec("system a # b\nsockets 2 # 4\n" + Wcets +
                              "task t wcet 5 curve periodic 100\n")
                  .has_value());
}

TEST(SpecGrammar, PrioIsAThirtyTwoBitField) {
  // A wide prio must not wrap to a valid one.
  EXPECT_NE(rejectSpec("sockets 1\n" + Wcets +
                       "task t wcet 5 prio 4294967297 curve periodic 9\n")
                .find("line 3: task: malformed prio"),
            std::string::npos);
  std::optional<SystemSpec> S = parseSystemSpec(
      "sockets 1\n" + Wcets +
      "task t wcet 5 prio 4294967295 curve periodic 9\n");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Client.Tasks.task(0).Prio, 4294967295u);
}

TEST(SpecGrammar, NumbersTakeAnyDigitCount) {
  // Any digit count makes a number.
  std::optional<SystemSpec> S = parseSystemSpec(
      "sockets 00000000000000000002\n" + Wcets +
      "task t wcet 00000000000000000005us prio 000000000000000000003 "
      "curve bucket 000000000000000000002 100\n");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Client.NumSockets, 2u);
  EXPECT_EQ(S->Client.Tasks.task(0).Wcet, 5000u);
  EXPECT_EQ(S->Client.Tasks.task(0).Prio, 3u);
}

TEST(SpecGrammar, TimeLiteralAtInfinityIsRejected) {
  // A wcet at TimeInfinity is an error, not an unbounded task.
  EXPECT_NE(rejectSpec("sockets 1\n" + Wcets +
                       "task t wcet 9999999999999999999s curve periodic "
                       "9\n")
                .find("line 3: task: malformed wcet"),
            std::string::npos);
}
