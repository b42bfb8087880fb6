//===- tests/caesium_parser_test.cpp - Frontend parser tests --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "caesium/parser.h"
#include "reference_parser.h"

#include "caesium/interp.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "sim/workload.h"
#include "support/rng.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::caesium;
using namespace rprosa::testutil;

namespace {

// Every parse in this file allocates into the shared test arena; the
// two-argument shim keeps the call sites focused on the grammar under
// test rather than on storage plumbing.
std::optional<StmtPtr> parseProgram(std::string_view Src,
                                    CheckResult *Diags = nullptr,
                                    ParseDiag *PD = nullptr) {
  return caesium::parseProgram(testArena(), Src, Diags, PD);
}

} // namespace

TEST(CaesiumParser, RoundTripsTheRosslProgram) {
  // parse(print(P)) prints identically to P — the frontend inverts the
  // printer.
  for (std::uint32_t Socks : {1u, 2u, 4u}) {
    StmtPtr P = buildRosslProgram(Socks);
    std::string Src = printStmt(*P);
    CheckResult Diags;
    std::optional<StmtPtr> Parsed = parseProgram(Src, &Diags);
    ASSERT_TRUE(Parsed.has_value()) << Diags.describe();
    EXPECT_EQ(printStmt(**Parsed), Src) << Socks << " sockets";
  }
}

TEST(CaesiumParser, ParsedSourceRunsIdenticallyToBuiltAst) {
  // The parsed Rössl source is trace-equivalent to the built AST (and
  // hence, by E12, to the native scheduler).
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 3000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  RunLimits Limits;
  Limits.Horizon = 5000;

  StmtPtr Built = buildRosslProgram(2);
  std::optional<StmtPtr> Parsed = parseProgram(printStmt(*Built));
  ASSERT_TRUE(Parsed.has_value());

  Environment EnvA(Arr);
  CostModel CostsA(C.Wcets, CostModelKind::Uniform, 5);
  CaesiumMachine MA(C, EnvA, CostsA);
  TimedTrace TA = MA.run(Built, Limits);

  Environment EnvB(Arr);
  CostModel CostsB(C.Wcets, CostModelKind::Uniform, 5);
  CaesiumMachine MB(C, EnvB, CostsB);
  TimedTrace TB = MB.run(*Parsed, Limits);

  ASSERT_EQ(TA.size(), TB.size());
  for (std::size_t I = 0; I < TA.size(); ++I) {
    EXPECT_EQ(TA.Tr[I].Kind, TB.Tr[I].Kind) << I;
    EXPECT_EQ(TA.Ts[I], TB.Ts[I]) << I;
  }
  EXPECT_EQ(TA.EndTime, TB.EndTime);
}

TEST(CaesiumParser, HandWrittenSchedulerSource) {
  // A single-socket scheduler written directly as text.
  const char *Src = R"(
    // hand-written single-socket Rössl
    while (fuel()) {
      r1 = 1;
      while (r1) {
        r1 = 0;
        r2 = read(r0, buf0);
        if (!(r2 == -1)) {
          npfp_enqueue(&sched, buf0);
          free(buf0);
          r1 = 1;
        }
      }
      selection_start();
      r3 = npfp_dequeue(&sched, buf1);
      if (r3) {
        dispatch_start(buf1);
        execution_start(buf1);
        completion_start(buf1);
        free(buf1);
      } else {
        idling_start();
      }
    }
  )";
  CheckResult Diags;
  std::optional<StmtPtr> P = parseProgram(Src, &Diags);
  ASSERT_TRUE(P.has_value()) << Diags.describe();

  ClientConfig C = makeClient(figure3Tasks(), 1);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(5, 0, 1);
  Environment Env(Arr);
  CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1);
  CaesiumMachine M(C, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = 500;
  TimedTrace Embedded = M.run(*P, Limits);

  TimedTrace Native = runRossl(C, Arr, 500);
  ASSERT_EQ(Embedded.size(), Native.size());
  for (std::size_t I = 0; I < Native.size(); ++I)
    EXPECT_EQ(Embedded.Ts[I], Native.Ts[I]) << I;
}

TEST(CaesiumParser, ExpressionForms) {
  // Exercise the pure expression grammar via round trips.
  for (const char *Src : {
           "r1 = ((r0 + 2) < 7);\n",
           "r2 = !(r1 == -1);\n",
           "r3 = (10 - (r2 + 1));\n",
           "r4 = fuel();\n",
       }) {
    CheckResult Diags;
    std::optional<StmtPtr> P = parseProgram(Src, &Diags);
    ASSERT_TRUE(P.has_value()) << Src << "\n" << Diags.describe();
    EXPECT_EQ(printStmt(**P), Src);
  }
}

TEST(CaesiumParser, RejectsMalformedInput) {
  for (const char *Bad : {
           "while (fuel()) { r0 = 1;", // Unclosed brace.
           "r0 = ;",                   // Missing expression.
           "read(r0, buf0);",          // read needs an assignment.
           "r0 = read(buf0, r1);",     // Swapped argument kinds.
           "frobnicate();",            // Unknown call.
           "r0 = (1 ? 2);",            // Bad operator.
           "npfp_enqueue(sched, buf0);", // Missing '&'.
           "r0 = 1 @;",                // Bad character.
       }) {
    CheckResult Diags;
    EXPECT_FALSE(parseProgram(Bad, &Diags).has_value()) << Bad;
    EXPECT_FALSE(Diags.passed()) << Bad;
  }
}

TEST(CaesiumParser, RejectsTruncatedStatements) {
  // Every prefix of a valid statement must produce a diagnostic, never
  // a crash or a silent partial parse.
  const std::string Full = "while (fuel()) { r2 = read(r0, buf0); }";
  for (std::size_t Len = 1; Len < Full.size(); ++Len) {
    std::string Prefix = Full.substr(0, Len);
    CheckResult Diags;
    std::optional<StmtPtr> P = parseProgram(Prefix, &Diags);
    if (P.has_value())
      continue; // Some prefixes ("while (fuel()) ...") can't be valid,
                // but e.g. none here are — guard anyway.
    EXPECT_FALSE(Diags.passed()) << "prefix: " << Prefix;
    EXPECT_FALSE(Diags.describe().empty()) << "prefix: " << Prefix;
  }
}

TEST(CaesiumParser, RejectsUnknownMarkersAndCalls) {
  for (const char *Bad : {
           "dispatch_stop(buf0);",        // No such marker.
           "selection_start(buf0);",      // Arity: takes no argument.
           "dispatch_start();",           // Arity: needs a buffer.
           "r0 = npfp_dequeue(sched, buf0);", // Missing '&'.
           "idling_start(r0);",           // Arity again.
       }) {
    CheckResult Diags;
    EXPECT_FALSE(parseProgram(Bad, &Diags).has_value()) << Bad;
    EXPECT_FALSE(Diags.passed()) << Bad;
  }
}

TEST(CaesiumParser, RejectsHugeRegisterAndBufferIndices) {
  // Register/buffer indices cap at 4095: downstream allocates index+1
  // slots, so an attacker-controlled index must not size an allocation.
  for (const char *Bad : {
           "r99999999999999999999999 = 1;", // Overflows uint64 too.
           "r4096 = 1;",                    // One past the cap.
           "r0 = read(r0, buf4096);",
           "r0 = read(r18446744073709551617, buf0);",
       }) {
    CheckResult Diags;
    EXPECT_FALSE(parseProgram(Bad, &Diags).has_value()) << Bad;
    EXPECT_NE(Diags.describe().find("exceeds the maximum 4095"),
              std::string::npos)
        << Bad << "\n" << Diags.describe();
  }
  // The cap itself is fine.
  EXPECT_TRUE(parseProgram("r4095 = 1;").has_value());
}

TEST(CaesiumParser, RejectsHugeNumericLiterals) {
  CheckResult Diags;
  EXPECT_FALSE(
      parseProgram("r0 = 99999999999999999999;", &Diags).has_value());
  EXPECT_NE(Diags.describe().find("numeric literal too large"),
            std::string::npos)
      << Diags.describe();
  // INT64_MAX itself still lexes.
  EXPECT_TRUE(parseProgram("r0 = 9223372036854775807;").has_value());
}

TEST(CaesiumParser, RejectsPathologicallyDeepNesting) {
  // 300 levels of '!' / parens / blocks exceed the recursion cap (256)
  // and must fail with a depth diagnostic, not a stack overflow.
  std::string Bangs = "r0 = ";
  for (int I = 0; I < 300; ++I)
    Bangs += "!";
  Bangs += "r1;";
  std::string Parens = "r0 = ";
  for (int I = 0; I < 300; ++I)
    Parens += "(";
  Parens += "1";
  for (int I = 0; I < 300; ++I)
    Parens += " + 1)";
  Parens += ";";
  std::string Blocks;
  for (int I = 0; I < 300; ++I)
    Blocks += "if (r0) { ";
  Blocks += "r1 = 1;";
  for (int I = 0; I < 300; ++I)
    Blocks += " }";
  for (const std::string &Bad : {Bangs, Parens, Blocks}) {
    CheckResult Diags;
    EXPECT_FALSE(parseProgram(Bad, &Diags).has_value());
    EXPECT_NE(Diags.describe().find("exceeds the maximum depth"),
              std::string::npos)
        << Diags.describe();
  }
  // 200 deep is inside the cap.
  std::string Ok = "r0 = ";
  for (int I = 0; I < 200; ++I)
    Ok += "!";
  Ok += "r1;";
  EXPECT_TRUE(parseProgram(Ok).has_value());
}

TEST(CaesiumParser, TokenSoupFuzzNeverCrashes) {
  // Random token sequences: the parser must either parse or diagnose.
  // Runs under the sanitizer CI configuration, so any lexer/parser
  // over-read or overflow trips ASan/UBSan here.
  static const char *Toks[] = {
      "while", "if",   "else", "fuel",  "read", "free", "npfp_enqueue",
      "npfp_dequeue",  "selection_start", "dispatch_start",
      "execution_start", "completion_start", "idling_start", "&sched",
      "r0",    "r1",   "buf0", "buf1",  "(",    ")",    "{",
      "}",     ";",    "=",    "==",    "<",    "+",    "-",
      "!",     "-1",   "0",    "1",     "4095", "9223372036854775807",
      ",",     "@",    "//x",  "#y",
  };
  const std::uint64_t Seed = fuzzSeed(31337);
  SplitMix64 Rng(Seed);
  for (int Round = 0; Round < 200; ++Round) {
    std::string Src;
    std::size_t Len = Rng.nextInRange(1, 40);
    for (std::size_t I = 0; I < Len; ++I) {
      Src += Toks[Rng.nextInRange(0, std::size(Toks) - 1)];
      Src += Rng.nextBernoulli(1, 6) ? "\n" : " ";
    }
    CheckResult Diags;
    std::optional<StmtPtr> P = parseProgram(Src, &Diags);
    if (!P.has_value()) {
      EXPECT_FALSE(Diags.passed())
          << "round " << Round << "; replay: RPROSA_FUZZ_SEED=" << Seed
          << "\n" << Src;
    }
  }
}

TEST(CaesiumParser, ByteSoupFuzzNeverCrashes) {
  // Arbitrary bytes (not just plausible tokens) through the lexer.
  const std::uint64_t Seed = fuzzSeed(271828);
  SplitMix64 Rng(Seed);
  for (int Round = 0; Round < 200; ++Round) {
    std::string Src;
    std::size_t Len = Rng.nextInRange(0, 64);
    for (std::size_t I = 0; I < Len; ++I)
      Src += static_cast<char>(Rng.nextInRange(1, 255));
    CheckResult Diags;
    (void)parseProgram(Src, &Diags); // Must not crash or hang.
  }
  SUCCEED() << "replay: RPROSA_FUZZ_SEED=" << Seed;
}

TEST(CaesiumParser, DiagnosticsPinLineAndColumn) {
  // Every error path reports the exact 1-based line and column of the
  // offending token, with stable reason text. These pins are the
  // contract rp_verify's caret snippets (renderParseError) build on.
  struct Pin {
    const char *Src;
    std::uint32_t Line;
    std::uint32_t Col;
    const char *Reason;
  };
  std::string Parens = "r0 = ";
  for (int I = 0; I < 300; ++I)
    Parens += "(";
  const std::vector<Pin> Pins = {
      // Literal overflow points at the literal itself.
      {"r0 = 99999999999999999999;", 1, 6, "numeric literal too large"},
      {"r0 = 1;\nr1 = (r0 + 99999999999999999999);", 2, 12,
       "numeric literal too large"},
      // Index caps point at the offending identifier.
      {"r4096 = 1;", 1, 1, "a register index '4096' exceeds the maximum 4095"},
      {"r0 = read(r0, buf4096);", 1, 15,
       "a buffer index '4096' exceeds the maximum 4095"},
      // The depth cap fires at the token that would exceed it: paren
      // 257 sits at column 5 + 256 + 1 = 262's predecessor (1-based).
      {Parens.c_str(), 1, 261,
       "expression nesting exceeds the maximum depth of 256"},
      // Unterminated constructs report the end-of-input position.
      {"while (fuel()) { r0 = 1;", 1, 25, "expected '}'"},
      {"while (fuel()) { r0 = 1;\n", 2, 1, "expected '}'"},
      {"r0 = (1 + 2;", 1, 12, "expected ')'"},
      {"r0 = 1", 1, 7, "expected ';'"},
      // Lexical errors carry the bad character's own position.
      {"r0 = 1;\n  r1 = @;", 2, 8, "unexpected character '@'"},
  };
  for (const Pin &P : Pins) {
    ParseDiag D;
    EXPECT_FALSE(caesium::parseProgram(testArena(), P.Src, nullptr, &D)
                     .has_value())
        << P.Src;
    EXPECT_EQ(D.Line, P.Line) << P.Src;
    EXPECT_EQ(D.Col, P.Col) << P.Src;
    EXPECT_EQ(D.Reason, P.Reason) << P.Src;
  }
}

TEST(CaesiumParser, CaretSnippetRendering) {
  // renderParseError pins: header, two-space indented source line, and
  // a caret under the offending column.
  {
    ParseDiag D;
    const char *Src = "r0 = 1;\nr1 = (r0 + );\n";
    ASSERT_FALSE(
        caesium::parseProgram(testArena(), Src, nullptr, &D).has_value());
    EXPECT_EQ(renderParseError("spec.rossl", Src, D),
              "spec.rossl:2:12: parse error: expected an expression\n"
              "  r1 = (r0 + );\n"
              "             ^\n");
  }
  {
    // Tabs before the error are preserved in the snippet and mirrored
    // in the caret line, so the caret stays visually aligned no matter
    // how wide the terminal renders the tab.
    ParseDiag D;
    const char *Src = "\tr0 = @;\n";
    ASSERT_FALSE(
        caesium::parseProgram(testArena(), Src, nullptr, &D).has_value());
    EXPECT_EQ(renderParseError("t.rossl", Src, D),
              "t.rossl:1:7: parse error: unexpected character '@'\n"
              "  \tr0 = @;\n"
              "  \t     ^\n");
  }
}

namespace {

/// Builds random printable ASTs for the round-trip fuzz: every shape
/// the printer can emit (canonical blocks only — Seq appears exactly
/// as the body of a block or the toplevel), with literals kept inside
/// the parseable range (|v| <= INT64_MAX) and indices inside the 4095
/// cap.
class AstFuzzer {
public:
  AstFuzzer(std::uint64_t Seed, AstArena &A) : Rng(Seed), A(A) {}

  StmtPtr program() {
    std::vector<StmtPtr> Top;
    std::size_t N = Rng.nextInRange(1, 6);
    for (std::size_t I = 0; I < N; ++I)
      Top.push_back(stmt(0));
    return A.seq(Top);
  }

private:
  ExprPtr expr(unsigned Depth) {
    if (Depth >= 5 || Rng.nextBernoulli(1, 3)) {
      switch (Rng.nextInRange(0, 3)) {
      case 0: {
        static const caesium::Value Lits[] = {
            0, 1, -1, 2, 7, 4095, 9223372036854775807,
            -9223372036854775807};
        return A.lit(Lits[Rng.nextInRange(0, std::size(Lits) - 1)]);
      }
      case 1:
        return A.lit(static_cast<caesium::Value>(Rng.nextInRange(0, 100)));
      case 2:
        return A.reg(reg());
      default:
        return A.fuel();
      }
    }
    switch (Rng.nextInRange(0, 6)) {
    case 0:
      return A.add(expr(Depth + 1), expr(Depth + 1));
    case 1:
      return A.sub(expr(Depth + 1), expr(Depth + 1));
    case 2:
      return A.divE(expr(Depth + 1), expr(Depth + 1));
    case 3:
      return A.modE(expr(Depth + 1), expr(Depth + 1));
    case 4:
      return A.less(expr(Depth + 1), expr(Depth + 1));
    case 5:
      return A.eq(expr(Depth + 1), expr(Depth + 1));
    default:
      return A.notE(expr(Depth + 1));
    }
  }

  StmtPtr block(unsigned Depth) {
    std::vector<StmtPtr> Kids;
    std::size_t N = Rng.nextInRange(1, 3);
    for (std::size_t I = 0; I < N; ++I)
      Kids.push_back(stmt(Depth));
    return A.seq(Kids);
  }

  StmtPtr stmt(unsigned Depth) {
    // Past depth 3, only leaves — keeps programs small and well under
    // the parser's nesting cap.
    switch (Rng.nextInRange(0, Depth >= 3 ? 5 : 7)) {
    case 0:
      return A.setReg(reg(), expr(0));
    case 1:
      return A.readE(reg(), buf(), reg());
    case 2: {
      static const TraceFn Fns[] = {TraceFn::TrSelection, TraceFn::TrDisp,
                                    TraceFn::TrExec, TraceFn::TrCompl,
                                    TraceFn::TrIdling};
      return A.traceE(Fns[Rng.nextInRange(0, std::size(Fns) - 1)], buf());
    }
    case 3:
      return A.enqueue(buf());
    case 4:
      return A.dequeue(buf(), reg());
    case 5:
      return A.freeBuf(buf());
    case 6:
      return A.whileLoop(expr(0), block(Depth + 1));
    default:
      return A.ifThen(expr(0), block(Depth + 1),
                      Rng.nextBernoulli(1, 2) ? block(Depth + 1) : nullptr);
    }
  }

  caesium::RegId reg() {
    return Rng.nextBernoulli(1, 8)
               ? static_cast<caesium::RegId>(Rng.nextInRange(0, 4095))
               : static_cast<caesium::RegId>(Rng.nextInRange(0, 7));
  }
  caesium::BufId buf() {
    return Rng.nextBernoulli(1, 8)
               ? static_cast<caesium::BufId>(Rng.nextInRange(0, 4095))
               : static_cast<caesium::BufId>(Rng.nextInRange(0, 3));
  }

  SplitMix64 Rng;
  AstArena &A;
};

} // namespace

TEST(CaesiumParser, RandomAstRoundTripFuzz) {
  // Seeded random ASTs: print -> parse -> print must be byte-identical,
  // and the reference (pre-refactor) parser must produce the same
  // bytes — the differential oracle for the streaming frontend.
  const std::uint64_t Seed = fuzzSeed(92873465);
  for (int Round = 0; Round < 150; ++Round) {
    AstFuzzer F(Seed + static_cast<std::uint64_t>(Round), testArena());
    StmtPtr P = F.program();
    std::string Printed = printStmt(*P);

    CheckResult Diags;
    std::optional<StmtPtr> Reparsed =
        caesium::parseProgram(testArena(), Printed, &Diags);
    ASSERT_TRUE(Reparsed.has_value())
        << "round " << Round << "; replay: RPROSA_FUZZ_SEED=" << Seed
        << "\n" << Diags.describe() << Printed;
    EXPECT_EQ(printStmt(**Reparsed), Printed)
        << "round " << Round << "; replay: RPROSA_FUZZ_SEED=" << Seed;

    std::optional<StmtPtr> Ref =
        caesium::parseProgramReference(testArena(), Printed);
    ASSERT_TRUE(Ref.has_value())
        << "round " << Round << "; replay: RPROSA_FUZZ_SEED=" << Seed;
    EXPECT_EQ(printStmt(**Ref), Printed)
        << "round " << Round << "; replay: RPROSA_FUZZ_SEED=" << Seed;
  }
}

TEST(CaesiumParser, DifferentialFuzzAgainstReference) {
  // Random token soup through both frontends: they must agree on
  // accept/reject, and accepted inputs must print identically. This is
  // the acceptance-equivalence half of the differential oracle (the
  // round-trip fuzz above covers the accepted-tree half).
  static const char *Toks[] = {
      "while", "if",   "else", "fuel()", "read", "free(buf0);",
      "npfp_enqueue(&sched, buf1);", "r2 = npfp_dequeue(&sched, buf0);",
      "selection_start();", "dispatch_start(buf0);", "idling_start();",
      "r0",    "r1",   "buf0", "(",      ")",    "{",
      "}",     ";",    "=",    "==",     "<",    "+",
      "-",     "!",    "-1",   "0",      "4095", "@",
      "//x\n", "#y\n",
  };
  const std::uint64_t Seed = fuzzSeed(777421);
  SplitMix64 Rng(Seed);
  for (int Round = 0; Round < 300; ++Round) {
    std::string Src;
    std::size_t Len = Rng.nextInRange(1, 30);
    for (std::size_t I = 0; I < Len; ++I) {
      Src += Toks[Rng.nextInRange(0, std::size(Toks) - 1)];
      Src += ' ';
    }
    std::optional<StmtPtr> New =
        caesium::parseProgram(testArena(), Src);
    std::optional<StmtPtr> Ref =
        caesium::parseProgramReference(testArena(), Src);
    ASSERT_EQ(New.has_value(), Ref.has_value())
        << "round " << Round << "; replay: RPROSA_FUZZ_SEED=" << Seed
        << "\n" << Src;
    if (New) {
      EXPECT_EQ(printStmt(**New), printStmt(**Ref))
          << "round " << Round << "; replay: RPROSA_FUZZ_SEED=" << Seed;
    }
  }
}

TEST(CaesiumParser, CommentsAndWhitespace) {
  const char *Src = "// leading comment\n"
                    "   r0 = 1;   # trailing comment style two\n"
                    "\n\n  r1 = (r0 + 1);";
  std::optional<StmtPtr> P = parseProgram(Src);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(printStmt(**P), "r0 = 1;\nr1 = (r0 + 1);\n");
}
