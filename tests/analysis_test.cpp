//===- tests/analysis_test.cpp - Static protocol verifier tests -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-analysis subsystem end to end: CFG lowering, the
/// exhaustive product model check (clean on the real Rössl program,
/// counterexamples on every mutant), agreement of the counterexamples
/// with the runtime ProtocolSts, the lint passes, and static/runtime
/// agreement over fuzzed interpreter runs.
///
//===----------------------------------------------------------------------===//

#include "analysis/cfg.h"
#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/witness.h"
#include "analysis/lint.h"
#include "analysis/mutants.h"
#include "analysis/timing/segment_costs.h"
#include "analysis/verifier.h"

#include "sim/environment.h"

#include "caesium/interp.h"
#include "caesium/rossl_program.h"
#include "sim/workload.h"
#include "support/rng.h"
#include "trace/protocol.h"

#include "test_util.h"

#include <gtest/gtest.h>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;
using namespace rprosa::testutil;

// The shared test arena (test_util.h): every hand-built AST node in
// this file allocates here.
static rprosa::caesium::AstArena &TA = rprosa::testutil::testArena();

namespace {

/// Replays a counterexample's marker prefix against a fresh runtime
/// acceptor: everything before the last marker must be accepted, the
/// last marker rejected, and the runtime diagnostic must equal the
/// static one.
void expectRuntimeRejects(const Verdict &V, std::uint32_t NumSockets) {
  ASSERT_EQ(V.Kind, VerdictKind::ProtocolViolation);
  ASSERT_FALSE(V.MarkerPrefix.empty());
  ProtocolSts Sts(NumSockets);
  for (std::size_t I = 0; I + 1 < V.MarkerPrefix.size(); ++I) {
    std::string Why;
    ASSERT_TRUE(Sts.step(V.MarkerPrefix[I], &Why))
        << "marker " << I << " of the prefix rejected: " << Why;
  }
  std::string Why;
  EXPECT_FALSE(Sts.step(V.MarkerPrefix.back(), &Why));
  EXPECT_EQ(Why, V.Diagnostic);
}

} // namespace

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

TEST(Cfg, LowersStraightLine) {
  StmtPtr P = TA.seq({
      TA.setReg(0, TA.lit(3)),
      TA.setReg(1, TA.add(TA.reg(0), TA.lit(1))),
  });
  Cfg G = buildCfg(P);
  EXPECT_EQ(G[G.Entry].K, CfgNode::Kind::Entry);
  EXPECT_EQ(G[G.Exit].K, CfgNode::Kind::Exit);
  // entry -> r0=3 -> r1=r0+1 -> exit.
  NodeId A = G[G.Entry].Succ;
  ASSERT_EQ(G[A].K, CfgNode::Kind::Assign);
  EXPECT_EQ(G[A].Dst, 0u);
  NodeId B = G[A].Succ;
  ASSERT_EQ(G[B].K, CfgNode::Kind::Assign);
  EXPECT_EQ(G[B].Dst, 1u);
  EXPECT_EQ(G[B].Succ, G.Exit);
  EXPECT_EQ(G.numRegs(), 2u);
  EXPECT_EQ(G.numBufs(), 0u);
}

TEST(Cfg, LowersIfElse) {
  StmtPtr P = TA.ifThen(TA.reg(0), TA.setReg(1, TA.lit(1)),
                           TA.setReg(1, TA.lit(2)));
  Cfg G = buildCfg(P);
  NodeId B = G[G.Entry].Succ;
  ASSERT_EQ(G[B].K, CfgNode::Kind::Branch);
  ASSERT_NE(G[B].Succ, G[B].FalseSucc);
  EXPECT_EQ(G[G[B].Succ].K, CfgNode::Kind::Assign);
  EXPECT_EQ(G[G[B].FalseSucc].K, CfgNode::Kind::Assign);
  // Both arms rejoin at Exit.
  EXPECT_EQ(G[G[B].Succ].Succ, G.Exit);
  EXPECT_EQ(G[G[B].FalseSucc].Succ, G.Exit);
}

TEST(Cfg, LowersWhileWithBackEdge) {
  StmtPtr P = TA.whileLoop(TA.less(TA.reg(0), TA.lit(3)),
                              TA.setReg(0, TA.add(TA.reg(0),
                                                        TA.lit(1))));
  Cfg G = buildCfg(P);
  NodeId W = G[G.Entry].Succ;
  ASSERT_EQ(G[W].K, CfgNode::Kind::Branch);
  NodeId Body = G[W].Succ;
  ASSERT_EQ(G[Body].K, CfgNode::Kind::Assign);
  EXPECT_EQ(G[Body].Succ, W) << "loop body must branch back to the head";
  EXPECT_EQ(G[W].FalseSucc, G.Exit);
}

TEST(Cfg, LowersRosslProgram) {
  Cfg G = buildCfg(buildRosslProgram(2));
  EXPECT_EQ(G.numRegs(), 4u);
  EXPECT_EQ(G.numBufs(), 2u);
  // One read, one dequeue, one enqueue, five marker calls.
  std::size_t Reads = 0, Deqs = 0, Enqs = 0, Traces = 0;
  for (NodeId N = 0; N < G.size(); ++N)
    switch (G[N].K) {
    case CfgNode::Kind::Read:
      ++Reads;
      break;
    case CfgNode::Kind::Dequeue:
      ++Deqs;
      break;
    case CfgNode::Kind::Enqueue:
      ++Enqs;
      break;
    case CfgNode::Kind::Trace:
      ++Traces;
      break;
    default:
      break;
    }
  EXPECT_EQ(Reads, 1u);
  EXPECT_EQ(Deqs, 1u);
  EXPECT_EQ(Enqs, 1u);
  EXPECT_EQ(Traces, 5u);
  // The dump names every node and is stable enough to grep.
  std::string D = G.dump();
  EXPECT_NE(D.find("npfp_dequeue"), std::string::npos);
  EXPECT_NE(D.find("dispatch_start(buf1)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The model check: clean verdicts
//===----------------------------------------------------------------------===//

TEST(Verifier, RosslIsCleanForSocketSweep) {
  for (std::uint32_t N : {1u, 2u, 4u}) {
    Verdict V = verifyProtocol(buildRosslProgram(N), N);
    EXPECT_TRUE(V.verified())
        << "N=" << N << ": " << V.describe();
    EXPECT_GT(V.StatesExplored, 0u);
    EXPECT_GT(V.TransitionsExplored, V.StatesExplored)
        << "nondeterministic branching must outnumber states";
  }
}

TEST(Verifier, RosslHasNoLintFindings) {
  for (std::uint32_t N : {1u, 2u, 4u}) {
    Cfg G = buildCfg(buildRosslProgram(N));
    Verdict V = verifyProtocol(G, N);
    ASSERT_TRUE(V.verified());
    std::vector<LintFinding> Fs = runLints(G, &V);
    EXPECT_TRUE(Fs.empty()) << describe(Fs);
  }
}

TEST(Verifier, StateSpaceIsFuelFree) {
  // The same verdict regardless of how generous the would-be fuel is:
  // the exploration is a fixpoint over abstract states, not a bounded
  // unrolling, so re-running it is deterministic and finite.
  Verdict A = verifyProtocol(buildRosslProgram(2), 2);
  Verdict B = verifyProtocol(buildRosslProgram(2), 2);
  EXPECT_EQ(A.StatesExplored, B.StatesExplored);
  EXPECT_EQ(A.TransitionsExplored, B.TransitionsExplored);
}

TEST(Verifier, EmptyProgramIsClean) {
  Verdict V = verifyProtocol(TA.seq({}), 1);
  EXPECT_TRUE(V.verified());
}

//===----------------------------------------------------------------------===//
// The model check: counterexamples
//===----------------------------------------------------------------------===//

TEST(Verifier, EveryMutantYieldsReplayableCounterexample) {
  for (std::uint32_t N : {1u, 2u, 4u}) {
    for (const Mutant &M : protocolMutantCorpus(N)) {
      Verdict V = verifyProtocol(M.Program, N);
      ASSERT_EQ(V.Kind, VerdictKind::ProtocolViolation)
          << M.Name << " (N=" << N << "): " << V.describe();
      EXPECT_FALSE(V.Trail.empty()) << M.Name;
      expectRuntimeRejects(V, N);
    }
  }
}

TEST(Verifier, CounterexampleIsMinimalForSkippedSelection) {
  // With one socket the shortest violating run is: one failed read
  // (ends the polling phase), then the dequeue and its miss-path idling
  // marker where M_Selection was expected — 3 markers in total.
  std::vector<Mutant> Corpus = protocolMutantCorpus(1);
  const Mutant *Skip = nullptr;
  for (const Mutant &M : Corpus)
    if (M.Name == "skipped-selection")
      Skip = &M;
  ASSERT_NE(Skip, nullptr);
  Verdict V = verifyProtocol(Skip->Program, 1);
  ASSERT_EQ(V.Kind, VerdictKind::ProtocolViolation);
  EXPECT_EQ(V.MarkerPrefix.size(), 3u) << V.describe();
}

TEST(Verifier, DispatchOfNeverFilledBufferIsADefect) {
  // A protocol-conformant polling phase followed by a dispatch of buf1,
  // which nothing ever filled: the machine would assert ("dispatch of
  // an empty buffer"); the verifier reports the defect statically. The
  // polling loop must be the real one so that no competing *protocol*
  // violation exists on any path.
  StmtPtr Poll = TA.seq({
      TA.setReg(1, TA.lit(1)),
      TA.whileLoop(
          TA.reg(1),
          TA.seq({
              TA.setReg(1, TA.lit(0)),
              TA.setReg(0, TA.lit(0)),
              TA.whileLoop(
                  TA.less(TA.reg(0), TA.lit(1)),
                  TA.seq({
                      TA.readE(0, 0, 2),
                      TA.ifThen(TA.notE(TA.eq(TA.reg(2),
                                                       TA.lit(-1))),
                                   TA.seq({
                                       TA.enqueue(0),
                                       TA.freeBuf(0),
                                       TA.setReg(1, TA.lit(1)),
                                   })),
                      TA.setReg(0, TA.add(TA.reg(0),
                                                TA.lit(1))),
                  })),
          })),
  });
  StmtPtr P = TA.seq({
      Poll,
      TA.traceE(TraceFn::TrSelection),
      TA.traceE(TraceFn::TrDisp, 1),
  });
  Verdict V = verifyProtocol(P, 1);
  EXPECT_EQ(V.Kind, VerdictKind::Defect) << V.describe();
  EXPECT_NE(V.Diagnostic.find("empty buffer"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Static verdicts vs the runtime monitor
//===----------------------------------------------------------------------===//

TEST(Agreement, InterpreterSafeMutantsAreCaughtAtRuntimeToo) {
  // Each statically-rejected mutant that the machine can execute must
  // also produce a concrete trace the runtime ProtocolSts rejects — the
  // static verdict is not crying wolf.
  const std::uint32_t N = 2;
  ClientConfig C = makeClient(figure3Tasks(), N);
  WorkloadSpec Spec;
  Spec.NumSockets = N;
  Spec.Horizon = 4000;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  for (const Mutant &M : protocolMutantCorpus(N)) {
    if (!M.InterpreterSafe)
      continue;
    Environment Env(Arr);
    CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1);
    CaesiumMachine Machine(C, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = 8000;
    TimedTrace TT = Machine.run(M.Program, Limits);
    EXPECT_FALSE(checkProtocol(TT.Tr, N).passed())
        << M.Name << ": runtime monitor missed the statically-detected "
        << "violation";
  }
}

TEST(Agreement, FuzzedRunsOfVerifiedProgramAllPassRuntimeCheck) {
  // The clean static verdict quantifies over all socket behaviours;
  // 100 randomized concrete runs must therefore all be accepted by the
  // runtime acceptor (static verdict => runtime verdict, per run).
  const std::uint64_t Seed = fuzzSeed(2026);
  SplitMix64 Rng(Seed);
  for (int Round = 0; Round < 100; ++Round) {
    std::uint32_t N = static_cast<std::uint32_t>(Rng.nextInRange(1, 4));
    StmtPtr Program = buildRosslProgram(N);
    static bool VerifiedFor[5] = {};
    if (!VerifiedFor[N]) {
      ASSERT_TRUE(verifyProtocol(Program, N).verified());
      VerifiedFor[N] = true;
    }

    ClientConfig C = makeClient(Rng.next() % 2 ? figure3Tasks()
                                               : mixedTasks(),
                                N);
    WorkloadSpec Spec;
    Spec.NumSockets = N;
    Spec.Horizon = 1000 + Rng.nextInRange(0, 3000);
    Spec.Seed = Rng.next();
    Spec.Style = static_cast<WorkloadStyle>(Rng.nextInRange(0, 2));
    ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);

    Environment Env(Arr);
    CostModel Costs(C.Wcets,
                    Rng.next() % 2 ? CostModelKind::AlwaysWcet
                                   : CostModelKind::Uniform,
                    Rng.next());
    CaesiumMachine Machine(C, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = Spec.Horizon * 2;
    TimedTrace TT = Machine.run(Program, Limits);
    CheckResult R = checkProtocol(TT.Tr, N);
    EXPECT_TRUE(R.passed())
        << "round " << Round << " (N=" << N
        << "); replay: RPROSA_FUZZ_SEED=" << Seed << "\n"
        << R.describe();
  }
}

//===----------------------------------------------------------------------===//
// Timing mutants: protocol-clean, caught only by the cost analysis
//===----------------------------------------------------------------------===//

namespace {

StaticCostParams timingTestParams() {
  StaticCostParams P;
  P.Wcets = tinyWcets();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 80;
  return P;
}

} // namespace

TEST(RegisterBound, CoversTheSocketCount) {
  // The polling counter counts up to N, so above 64 sockets the bound
  // grows with N: the loop exit stays decided, the program verifies,
  // and every segment bound is the one at 64 sockets.
  TimingResult At64 = analyzeTiming(buildCfg(buildRosslProgram(64)),
                                    timingTestParams(), 64);
  for (std::uint32_t N : {65u, 100u, 256u}) {
    SCOPED_TRACE("N=" + std::to_string(N));
    Verdict V = verifyProtocol(buildRosslProgram(N), N);
    EXPECT_TRUE(V.verified()) << V.describe();
    TimingResult Got = analyzeTiming(buildCfg(buildRosslProgram(N)),
                                     timingTestParams(), N);
    EXPECT_EQ(Got.PathsExplored, At64.PathsExplored);
    for (std::size_t C = 0; C < NumSegmentClasses; ++C) {
      const SegmentBound &Want = At64.Segments[C], &Have = Got.Segments[C];
      EXPECT_EQ(Have.Reachable, Want.Reachable) << "class " << C;
      EXPECT_EQ(Have.I.Lo, Want.I.Lo) << "class " << C;
      EXPECT_EQ(Have.I.Hi, Want.I.Hi) << "class " << C;
      EXPECT_EQ(Have.InstrTailHi, Want.InstrTailHi) << "class " << C;
    }
  }
}

TEST(TimingMutants, ProtocolVerifierAcceptsBoth) {
  // The whole point of the corpus: the Def. 3.1 verifier cannot tell
  // the mutants from the reference — only the cost pass can.
  for (std::uint32_t N : {1u, 2u, 4u})
    for (const Mutant &M : timingMutantCorpus(N)) {
      Verdict V = verifyProtocol(M.Program, N);
      EXPECT_TRUE(V.verified()) << M.Name << " (N=" << N << "): "
                                << V.describe();
      EXPECT_TRUE(M.InterpreterSafe) << M.Name;
    }
}

TEST(TimingMutants, CostPassFlagsEachWithWitnessPath) {
  const std::uint32_t N = 2;
  TimingResult Ref = analyzeTiming(buildCfg(buildRosslProgram(N)),
                                   timingTestParams(), N);
  for (const Mutant &M : timingMutantCorpus(N)) {
    TimingResult Got = analyzeTiming(buildCfg(M.Program),
                                     timingTestParams(), N);
    ASSERT_TRUE(Got.allBounded()) << M.Name;
    std::vector<TimingDiff> Diffs = diffTiming(Ref, Got);
    ASSERT_EQ(Diffs.size(), 1u)
        << M.Name << " must inflate exactly one segment class";
    const TimingDiff &D = Diffs[0];
    EXPECT_GT(D.GotHi, D.RefHi) << M.Name;
    ASSERT_FALSE(D.Witness.empty()) << M.Name;

    // The witness trail is replayable evidence: it must walk through
    // the injected spin loop (its counter register names it).
    const std::string &Trail = D.Witness;
    if (M.Name == "read-retry-backoff") {
      EXPECT_EQ(D.Class, SegmentClass::FailedRead) << M.Name;
      EXPECT_NE(Trail.find("r4"), std::string::npos) << Trail;
      // The spin sits on the failed-read path only: the successful
      // flavor takes the then-branch, so its bound is untouched.
      EXPECT_EQ(Got.seg(SegmentClass::SuccessfulRead).I.Hi,
                Ref.seg(SegmentClass::SuccessfulRead).I.Hi);
    } else {
      ASSERT_EQ(M.Name, "padded-dispatch");
      EXPECT_EQ(D.Class, SegmentClass::Dispatch) << M.Name;
      EXPECT_NE(Trail.find("r5"), std::string::npos) << Trail;
      EXPECT_EQ(Got.seg(SegmentClass::FailedRead).I.Hi,
                Ref.seg(SegmentClass::FailedRead).I.Hi);
    }
  }
}

TEST(TimingMutants, ObservedCostsConfirmTheStaticDiff) {
  // Cross-validation: running each mutant must produce segment costs
  // that (a) exceed the reference program's static bound for the
  // flagged class — the regression is real — and (b) stay inside the
  // mutant's own static interval — the grown bound is sound.
  const std::uint32_t N = 2;
  TimingResult Ref = analyzeTiming(buildCfg(buildRosslProgram(N)),
                                   timingTestParams(), N);
  ClientConfig C = makeClient(mixedTasks(), N);
  WorkloadSpec Spec;
  Spec.NumSockets = N;
  Spec.Horizon = 3000;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);

  for (const Mutant &M : timingMutantCorpus(N)) {
    TimingResult Got = analyzeTiming(buildCfg(M.Program),
                                     timingTestParams(), N);
    std::vector<TimingDiff> Diffs = diffTiming(Ref, Got);
    ASSERT_EQ(Diffs.size(), 1u) << M.Name;
    SegmentClass Flagged = Diffs[0].Class;

    Environment Env(Arr);
    CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1,
                    InstructionCosts::unit());
    CaesiumMachine Machine(C, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = 6000;
    TimedTrace TT = Machine.run(M.Program, Limits);

    Duration ObservedMax = 0;
    for (const ObservedSegment &S : observedSegments(TT)) {
      ASSERT_TRUE(Got.seg(S.Class).I.contains(S.Len))
          << M.Name << ": " << toString(S.Class) << " observed "
          << S.Len << " outside the mutant's own static interval";
      if (S.Class == Flagged)
        ObservedMax = std::max(ObservedMax, S.Len);
    }
    EXPECT_GT(ObservedMax, Ref.seg(Flagged).I.Hi)
        << M.Name << ": the flagged regression must be observable";
    EXPECT_LE(ObservedMax, Got.seg(Flagged).I.Hi) << M.Name;
  }
}

//===----------------------------------------------------------------------===//
// Value-range mutants: static flags cross-validated against runtime traps
//===----------------------------------------------------------------------===//

namespace {

/// The value-range findings of \p Program for \p N sockets.
std::vector<dataflow::Finding> valueRangeFindings(const StmtPtr &Program,
                                                  std::uint32_t N) {
  dataflow::AnalysisOptions Opts;
  Opts.NumSockets = N;
  return dataflow::analyzeValueRanges(buildCfg(Program), Opts).Findings;
}

} // namespace

TEST(ValueRangeMutants, EachIsFlaggedUnderItsExpectedCheckId) {
  for (std::uint32_t N : {1u, 2u, 4u})
    for (const Mutant &M : valueRangeMutantCorpus(N)) {
      ASSERT_FALSE(M.ExpectedCheckId.empty()) << M.Name;
      std::vector<dataflow::Finding> Fs =
          valueRangeFindings(M.Program, N);
      bool Flagged = false;
      for (const dataflow::Finding &F : Fs)
        Flagged |= F.CheckId == M.ExpectedCheckId;
      EXPECT_TRUE(Flagged)
          << M.Name << " (N=" << N << "): expected a "
          << M.ExpectedCheckId << " finding; got:\n"
          << dataflow::renderText("<mutant>", Fs);
    }
}

TEST(ValueRangeMutants, CleanCorpusHasZeroValueRangeFindings) {
  // The other side of the cross-validation: the reference program and
  // every protocol/timing mutant are arithmetically sound, so any
  // value-range finding on them would be a false positive.
  for (std::uint32_t N : {1u, 2u, 4u}) {
    std::vector<std::pair<std::string, StmtPtr>> Clean;
    Clean.emplace_back("reference", buildRosslProgram(N));
    for (Mutant &M : protocolMutantCorpus(N))
      Clean.emplace_back(M.Name, std::move(M.Program));
    for (Mutant &M : timingMutantCorpus(N))
      Clean.emplace_back(M.Name, std::move(M.Program));
    for (const auto &[Name, Program] : Clean) {
      std::vector<dataflow::Finding> Fs = valueRangeFindings(Program, N);
      EXPECT_TRUE(Fs.empty())
          << Name << " (N=" << N << ") false positive:\n"
          << dataflow::renderText("<clean>", Fs);
    }
  }
}

TEST(ValueRangeMutants, RuntimeTrapCarriesTheSameCheckId) {
  // Run each mutant on the machine: it must stop with a RuntimeTrap
  // whose checkId() is literally the statically-reported one — the
  // static verdict names the same defect the machine hits.
  const std::uint32_t N = 2;
  ClientConfig C = makeClient(figure3Tasks(), N);
  WorkloadSpec Spec;
  Spec.NumSockets = N;
  Spec.Horizon = 4000;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  for (const Mutant &M : valueRangeMutantCorpus(N)) {
    ASSERT_TRUE(M.InterpreterSafe) << M.Name;
    Environment Env(Arr);
    CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1);
    CaesiumMachine Machine(C, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = 8000;
    (void)Machine.run(M.Program, Limits);
    ASSERT_TRUE(Machine.trap().has_value())
        << M.Name << ": the machine never hit the defect";
    EXPECT_EQ(Machine.trap()->checkId(), M.ExpectedCheckId) << M.Name;
  }
}

TEST(ValueRangeMutants, ReferenceRunNeverTraps) {
  const std::uint32_t N = 2;
  ClientConfig C = makeClient(figure3Tasks(), N);
  WorkloadSpec Spec;
  Spec.NumSockets = N;
  Spec.Horizon = 4000;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  Environment Env(Arr);
  CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1);
  CaesiumMachine Machine(C, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = 8000;
  (void)Machine.run(buildRosslProgram(N), Limits);
  EXPECT_FALSE(Machine.trap().has_value())
      << Machine.trap()->Message;
}

//===----------------------------------------------------------------------===//
// Witness refinement: May findings become replayed traps or proofs
//===----------------------------------------------------------------------===//

namespace {

/// Runs the value-range analysis and the witness refinement on one
/// program, returning the refined findings.
std::vector<dataflow::Finding>
refinedFindings(const StmtPtr &Program, std::uint32_t N,
                bool Replay = true) {
  Cfg G = buildCfg(Program);
  dataflow::AnalysisOptions Opts;
  Opts.NumSockets = N;
  std::vector<dataflow::Finding> Fs =
      dataflow::analyzeValueRanges(G, Opts).Findings;
  dataflow::WitnessOptions WOpts;
  WOpts.NumSockets = N;
  WOpts.Replay = Replay;
  (void)dataflow::refineFindings(G, Fs, WOpts);
  return Fs;
}

/// The refined finding carrying \p CheckId (there must be exactly one
/// refined finding with that id in the witness corpus programs).
const dataflow::Finding *findRefined(const std::vector<dataflow::Finding> &Fs,
                                     const std::string &CheckId) {
  for (const dataflow::Finding &F : Fs)
    if (F.CheckId == CheckId && F.Refined)
      return &F;
  return nullptr;
}

} // namespace

TEST(WitnessRefinement, MutantCorpusVerdictsMatchExpectations) {
  // The corpus contract: "confirmed" mutants are real bugs the replay
  // reproduces (upgraded to Error, trap check-id literally equal),
  // "infeasible" mutants are interval artifacts the zone domain proves
  // away (downgraded to Note). Stable across socket counts.
  for (std::uint32_t N : {1u, 2u, 4u})
    for (const Mutant &M : witnessMutantCorpus(N)) {
      ASSERT_FALSE(M.ExpectedRefinement.empty()) << M.Name;
      std::vector<dataflow::Finding> Fs = refinedFindings(M.Program, N);
      const dataflow::Finding *F = findRefined(Fs, M.ExpectedCheckId);
      ASSERT_NE(F, nullptr)
          << M.Name << " (N=" << N << "):\n"
          << dataflow::renderText("<mutant>", Fs);
      EXPECT_EQ(toString(F->Refined->St), M.ExpectedRefinement)
          << M.Name << " (N=" << N << "): " << F->Refined->Detail;
      if (M.ExpectedRefinement == "confirmed") {
        EXPECT_EQ(F->Sev, dataflow::Severity::Error) << M.Name;
        EXPECT_EQ(F->Refined->TrapCheckId, F->CheckId) << M.Name;
        EXPECT_FALSE(F->Refined->Path.empty()) << M.Name;
      } else {
        EXPECT_EQ(F->Sev, dataflow::Severity::Note) << M.Name;
        EXPECT_TRUE(F->Refined->TrapCheckId.empty()) << M.Name;
      }
    }
}

TEST(WitnessRefinement, ValueRangeCorpusConfirmsEveryMayFinding) {
  // The original value-range mutants are all real bugs: each May
  // finding under the mutant's check-id must come back Confirmed, i.e.
  // upgraded only on the strength of an actual interpreter trap whose
  // check-id equals the finding's.
  for (std::uint32_t N : {1u, 2u, 4u})
    for (const Mutant &M : valueRangeMutantCorpus(N)) {
      std::vector<dataflow::Finding> Fs = refinedFindings(M.Program, N);
      const dataflow::Finding *F = findRefined(Fs, M.ExpectedCheckId);
      ASSERT_NE(F, nullptr) << M.Name << " (N=" << N << ")";
      EXPECT_EQ(F->Refined->St,
                dataflow::WitnessRefinement::Status::Confirmed)
          << M.Name << " (N=" << N << "): " << F->Refined->Detail;
      EXPECT_EQ(F->Refined->TrapCheckId, M.ExpectedCheckId) << M.Name;
    }
}

TEST(WitnessRefinement, EveryUpgradeIsBackedByAMatchingReplayTrap) {
  // The soundness assertion of the acceptance criteria, over BOTH
  // corpora: a finding may leave refinement as Error only if its
  // refinement record says Confirmed with an equal trap check-id.
  for (std::uint32_t N : {1u, 2u, 4u}) {
    std::vector<Mutant> All = valueRangeMutantCorpus(N);
    for (Mutant &M : witnessMutantCorpus(N))
      All.push_back(std::move(M));
    for (const Mutant &M : All)
      for (const dataflow::Finding &F : refinedFindings(M.Program, N)) {
        if (F.Sev != dataflow::Severity::Error || !F.Refined)
          continue;
        EXPECT_EQ(F.Refined->St,
                  dataflow::WitnessRefinement::Status::Confirmed)
            << M.Name;
        EXPECT_EQ(F.Refined->TrapCheckId, F.CheckId) << M.Name;
      }
  }
}

TEST(WitnessRefinement, NoUpgradeWithoutReplay) {
  // Replay off: the path executor may find witnesses but must not
  // change any severity — upgrades REQUIRE the interpreter run.
  for (const Mutant &M : witnessMutantCorpus(2)) {
    std::vector<dataflow::Finding> Fs =
        refinedFindings(M.Program, 2, /*Replay=*/false);
    const dataflow::Finding *F = findRefined(Fs, M.ExpectedCheckId);
    ASSERT_NE(F, nullptr) << M.Name;
    if (M.ExpectedRefinement == "confirmed") {
      EXPECT_EQ(F->Refined->St,
                dataflow::WitnessRefinement::Status::WitnessFound)
          << M.Name << ": " << F->Refined->Detail;
      EXPECT_EQ(F->Sev, dataflow::Severity::Warning) << M.Name;
      EXPECT_TRUE(F->Refined->TrapCheckId.empty()) << M.Name;
    } else {
      // Suppression is a static proof; it does not depend on replay.
      EXPECT_EQ(F->Refined->St,
                dataflow::WitnessRefinement::Status::Infeasible)
          << M.Name;
      EXPECT_EQ(F->Sev, dataflow::Severity::Note) << M.Name;
    }
  }
}

TEST(WitnessRefinement, SynthesizesTheTrappingPayload) {
  // payload-divisor traps only for a 5-byte datagram: the witness must
  // contain a scripted read with exactly that payload — evidence the
  // zone domain solved for the input rather than replaying noise.
  for (const Mutant &M : witnessMutantCorpus(2)) {
    if (M.Name != "payload-divisor")
      continue;
    std::vector<dataflow::Finding> Fs = refinedFindings(M.Program, 2);
    const dataflow::Finding *F = findRefined(Fs, M.ExpectedCheckId);
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(F->Refined->St,
              dataflow::WitnessRefinement::Status::Confirmed)
        << F->Refined->Detail;
    bool SawPayload = false;
    for (const std::string &I : F->Refined->Inputs)
      SawPayload |= I.find("payload 5") != std::string::npos;
    EXPECT_TRUE(SawPayload)
        << dataflow::renderText("<mutant>", Fs);
    return;
  }
  FAIL() << "payload-divisor not in the corpus";
}

TEST(WitnessRefinement, InfeasibleMutantsNeverTrapAtRuntime) {
  // The runtime side of a suppression proof: the "infeasible" mutants
  // must survive a dense workload without any RuntimeTrap.
  const std::uint32_t N = 2;
  ClientConfig C = makeClient(figure3Tasks(), N);
  WorkloadSpec Spec;
  Spec.NumSockets = N;
  Spec.Horizon = 4000;
  Spec.Style = WorkloadStyle::GreedyDense;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  for (const Mutant &M : witnessMutantCorpus(N)) {
    if (M.ExpectedRefinement != "infeasible")
      continue;
    Environment Env(Arr);
    CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1);
    CaesiumMachine Machine(C, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = 8000;
    (void)Machine.run(M.Program, Limits);
    EXPECT_FALSE(Machine.trap().has_value())
        << M.Name << ": " << Machine.trap()->Message;
  }
}

TEST(WitnessRefinement, ReferenceProgramHasNothingToRefine) {
  for (std::uint32_t N : {1u, 2u, 4u}) {
    Cfg G = buildCfg(buildRosslProgram(N));
    dataflow::AnalysisOptions Opts;
    Opts.NumSockets = N;
    std::vector<dataflow::Finding> Fs =
        dataflow::analyzeValueRanges(G, Opts).Findings;
    dataflow::WitnessOptions WOpts;
    WOpts.NumSockets = N;
    dataflow::WitnessSummary Sum = dataflow::refineFindings(G, Fs, WOpts);
    EXPECT_EQ(Sum.Attempted, 0u) << "N=" << N;
    EXPECT_EQ(Sum.Steps, 0u) << "N=" << N;
  }
}

//===----------------------------------------------------------------------===//
// Lint passes
//===----------------------------------------------------------------------===//

TEST(Lint, MarkerBalanceCatchesDroppedCompletion) {
  for (const Mutant &M : protocolMutantCorpus(2))
    if (M.Name == "dropped-completion") {
      std::vector<LintFinding> Fs = lintMarkerBalance(buildCfg(M.Program));
      ASSERT_FALSE(Fs.empty());
      EXPECT_EQ(Fs[0].Pass, "marker-balance");
      return;
    }
  FAIL() << "mutant not found";
}

TEST(Lint, DefBeforeUseCatchesUnassignedRegister) {
  StmtPtr P = TA.setReg(1, TA.add(TA.reg(5), TA.lit(1)));
  std::vector<LintFinding> Fs = lintDefBeforeUse(buildCfg(P));
  ASSERT_FALSE(Fs.empty());
  EXPECT_NE(Fs[0].Message.find("r5"), std::string::npos);
}

TEST(Lint, DefBeforeUseCatchesNeverFilledBuffer) {
  StmtPtr P = TA.seq({TA.enqueue(3)});
  std::vector<LintFinding> Fs = lintDefBeforeUse(buildCfg(P));
  ASSERT_FALSE(Fs.empty());
  EXPECT_NE(Fs[0].Message.find("buf3"), std::string::npos);
}

TEST(Lint, FuelTerminationCatchesWhileTrue) {
  StmtPtr P = TA.whileLoop(TA.lit(1), TA.setReg(0, TA.lit(0)));
  std::vector<LintFinding> Fs = lintFuelTermination(buildCfg(P));
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Pass, "fuel-termination");
}

TEST(Lint, FuelTerminationCatchesInvariantCondition) {
  // while (r0 < 3) { r1 = r1 + 1; } — the body never changes r0.
  StmtPtr P = TA.seq({
      TA.setReg(0, TA.lit(0)),
      TA.whileLoop(TA.less(TA.reg(0), TA.lit(3)),
                      TA.setReg(1, TA.add(TA.reg(1),
                                                TA.lit(1)))),
  });
  std::vector<LintFinding> Fs = lintFuelTermination(buildCfg(P));
  ASSERT_EQ(Fs.size(), 1u);
}

TEST(Lint, FuelTerminationAcceptsFuelAndProgressLoops) {
  EXPECT_TRUE(lintFuelTermination(buildCfg(buildRosslProgram(3))).empty());
}

TEST(Lint, DeadBranchCatchesConstantCondition) {
  StmtPtr P = TA.ifThen(TA.lit(0), TA.setReg(0, TA.lit(7)));
  Cfg G = buildCfg(P);
  Verdict V = verifyProtocol(G, 1);
  ASSERT_TRUE(V.verified());
  std::vector<LintFinding> Fs = lintDeadBranches(G, V);
  ASSERT_FALSE(Fs.empty());
  bool SawNeverTrue = false, SawUnreachable = false;
  for (const LintFinding &F : Fs) {
    SawNeverTrue |= F.Message.find("true") != std::string::npos;
    SawUnreachable |= F.Message.find("unreachable") != std::string::npos;
  }
  EXPECT_TRUE(SawNeverTrue);
  EXPECT_TRUE(SawUnreachable);
}

TEST(Lint, MachineRangeCatchesOversizedPrograms) {
  StmtPtr P = TA.setReg(9, TA.lit(1));
  std::vector<LintFinding> Fs = lintMachineRange(buildCfg(P));
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Pass, "machine-range");
}
