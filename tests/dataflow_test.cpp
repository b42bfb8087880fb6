//===- tests/dataflow_test.cpp - The unified dataflow engine --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worklist engine (engine.h) and its analysis instances: CFG
/// iteration order, forward and backward solving, interval arithmetic
/// and branch refinement, widening at loop heads (including self-loops
/// and nested loops), the dead-code / marker-discipline / definite-init
/// passes, and the byte-pinned text and SARIF renderings that
/// `rp_verify --lint` emits. Two composition tests hold the unified
/// report equal to its parts and each refinement equal to refining its
/// finding alone, over the Rössl programs, the example source, the
/// mutant corpora, two loop ladders and seeded single edits
/// (RPROSA_FUZZ_SEED picks a fresh set; a failure names it).
///
//===----------------------------------------------------------------------===//

#include "analysis/cfg.h"
#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/diagnostics.h"
#include "analysis/dataflow/engine.h"
#include "analysis/dataflow/interval.h"
#include "analysis/dataflow/witness.h"
#include "analysis/dataflow/zone.h"
#include "analysis/lint.h"
#include "analysis/mutants.h"

#include "caesium/parser.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"

#include "reference_dataflow.h"
#include "test_util.h"

#include <gtest/gtest.h>

#include <span>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using namespace rprosa::caesium;

// The shared test arena (test_util.h): every hand-built AST node in
// this file allocates here.
static rprosa::caesium::AstArena &TA = rprosa::testutil::testArena();

namespace {

StmtPtr parseOrDie(const std::string &Src) {
  CheckResult Diags;
  std::optional<StmtPtr> P = parseProgram(TA, Src, &Diags);
  EXPECT_TRUE(P.has_value()) << Diags.describe();
  return P ? *P : TA.seq({});
}

} // namespace

//===----------------------------------------------------------------------===//
// CfgOrder: the deterministic iteration structure
//===----------------------------------------------------------------------===//

TEST(CfgOrder, RpoCoversEveryNodeExactlyOnce) {
  Cfg G = buildCfg(buildRosslProgram(2));
  CfgOrder Order = CfgOrder::compute(G);
  ASSERT_EQ(Order.Rpo.size(), G.size());
  std::vector<bool> Seen(G.size(), false);
  for (NodeId N : Order.Rpo) {
    ASSERT_LT(N, G.size());
    EXPECT_FALSE(Seen[N]) << "n" << N << " appears twice";
    Seen[N] = true;
  }
  EXPECT_EQ(Order.Rpo.front(), G.Entry);
  for (NodeId N = 0; N < G.size(); ++N) {
    EXPECT_EQ(Order.Rpo[Order.RpoIndex[N]], N);
    EXPECT_TRUE(Order.Reachable[N]) << "structured lowering leaves no "
                                       "graph-unreachable nodes";
  }
}

TEST(CfgOrder, PredsInvertSuccessors) {
  Cfg G = buildCfg(buildRosslProgram(2));
  CfgOrder Order = CfgOrder::compute(G);
  std::size_t Edges = 0;
  for (NodeId N = 0; N < G.size(); ++N)
    for (NodeId S : G.successors(N)) {
      std::span<const NodeId> P = Order.preds(S);
      EXPECT_NE(std::find(P.begin(), P.end(), N), P.end())
          << "edge n" << N << " -> n" << S << " missing from preds";
      ++Edges;
    }
  std::size_t PredEdges = 0;
  for (NodeId N = 0; N < G.size(); ++N) {
    std::span<const NodeId> P = Order.preds(N);
    EXPECT_TRUE(std::is_sorted(P.begin(), P.end()));
    PredEdges += P.size();
  }
  EXPECT_EQ(Edges, PredEdges);
  EXPECT_EQ(Order.PredIds.size(), PredEdges);
}

TEST(CfgOrder, LoopHeadsAreExactlyTheBackEdgeTargets) {
  // Three loops in the Rössl program: fuel, polling, and the per-round
  // socket loop — each contributes exactly one head (a Branch node).
  Cfg G = buildCfg(buildRosslProgram(2));
  CfgOrder Order = CfgOrder::compute(G);
  std::size_t Heads = 0;
  for (NodeId N = 0; N < G.size(); ++N)
    if (Order.LoopHead[N]) {
      ++Heads;
      EXPECT_EQ(G[N].K, CfgNode::Kind::Branch);
    }
  EXPECT_EQ(Heads, 3u);

  // A straight-line program has none.
  Cfg S = buildCfg(parseOrDie("r0 = 1;\nr1 = (r0 + 1);\n"));
  CfgOrder SO = CfgOrder::compute(S);
  for (NodeId N = 0; N < S.size(); ++N)
    EXPECT_FALSE(SO.LoopHead[N]);
}

TEST(CfgOrder, SelfLoopIsItsOwnHead) {
  // `while (1) {}` lowers to a branch whose true successor is itself.
  Cfg G = buildCfg(parseOrDie("while (1) {}\n"));
  CfgOrder Order = CfgOrder::compute(G);
  bool Found = false;
  for (NodeId N = 0; N < G.size(); ++N)
    if (G[N].K == CfgNode::Kind::Branch && G[N].Succ == N) {
      EXPECT_TRUE(Order.LoopHead[N]);
      Found = true;
    }
  EXPECT_TRUE(Found) << G.dump();
}

//===----------------------------------------------------------------------===//
// The engine proper, on a purpose-built domain per direction
//===----------------------------------------------------------------------===//

namespace {

/// Forward instance for the tests: nodes reachable from entry. (State
/// is int, not bool: the engine stores states in a std::vector and
/// vector<bool>'s proxy references cannot bind to State&.)
struct ReachDomain {
  using State = int;
  State bottom(const Cfg &) const { return 0; }
  State boundary(const Cfg &) const { return 1; }
  bool join(State &Into, const State &S) const {
    if (S && !Into) {
      Into = 1;
      return true;
    }
    return false;
  }
  void transfer(const Cfg &, NodeId, const State &In, State &Out) const {
    Out = In;
  }
};

/// The backward instance (live registers), shared with the engine's
/// oracle suite.
using reference::LiveDomain;

} // namespace

TEST(Engine, ForwardReachabilityConverges) {
  Cfg G = buildCfg(buildRosslProgram(2));
  CfgOrder Order = CfgOrder::compute(G);
  Solution<int> Sol = solve(G, ReachDomain{}, Order);
  ASSERT_TRUE(Sol.Converged);
  EXPECT_GT(Sol.NodeVisits, 0u);
  for (NodeId N = 0; N < G.size(); ++N)
    EXPECT_TRUE(Sol.In[N]) << "n" << N;
}

TEST(Engine, BackwardLivenessOnStraightLine) {
  // r0 = 1; r1 = (r0 + 1); r0 is live between its def and its use,
  // dead after; r1 is never read, so it is dead everywhere.
  Cfg G = buildCfg(parseOrDie("r0 = 1;\nr1 = (r0 + 1);\n"));
  CfgOrder Order = CfgOrder::compute(G);
  Solution<std::vector<bool>> Sol =
      solve(G, LiveDomain(G.numRegs()), Order, Direction::Backward);
  ASSERT_TRUE(Sol.Converged);
  NodeId Def0 = G[G.Entry].Succ;  // r0 = 1
  NodeId Use0 = G[Def0].Succ;     // r1 = r0 + 1
  // Backward solution: Out is the state BEFORE the node runs.
  EXPECT_TRUE(Sol.Out[Use0][0]) << "r0 live before its use";
  EXPECT_FALSE(Sol.Out[Def0][0]) << "r0 dead before its def";
  EXPECT_FALSE(Sol.In[Use0][1]) << "r1 never read";
}

TEST(Engine, BackwardLivenessThroughLoop) {
  // while (r0 < 3) { r0 = (r0 + 1); } — r0 is live at the loop head on
  // every iteration (condition reads it).
  Cfg G = buildCfg(
      parseOrDie("r0 = 0;\nwhile ((r0 < 3)) { r0 = (r0 + 1); }\n"));
  CfgOrder Order = CfgOrder::compute(G);
  Solution<std::vector<bool>> Sol =
      solve(G, LiveDomain(G.numRegs()), Order, Direction::Backward);
  ASSERT_TRUE(Sol.Converged);
  for (NodeId N = 0; N < G.size(); ++N)
    if (G[N].K == CfgNode::Kind::Branch) {
      EXPECT_TRUE(Sol.Out[N][0]) << "r0 live entering the loop test";
    }
}

TEST(Engine, EmptyProgramSolvesToBoundaryAtExit) {
  Cfg G = buildCfg(TA.seq({}));
  CfgOrder Order = CfgOrder::compute(G);
  Solution<int> Sol = solve(G, ReachDomain{}, Order);
  ASSERT_TRUE(Sol.Converged);
  EXPECT_TRUE(Sol.In[G.Exit]);
  EXPECT_TRUE(Sol.Converged);
}

TEST(Engine, VisitCountsArePinned) {
  // The worklist's extraction order decides how often each node's
  // transfer runs. These counts were recorded with the ordered-set
  // worklist; any other worklist must pop in the same order and so
  // reproduce them exactly. Live is the backward liveness instance
  // above, the one backward solve.
  struct Pinned {
    const char *Program;
    Cfg G;
    std::uint64_t Range, Zone, Init, Marker, Live;
  };
  const Pinned Want[] = {
      {"rossl-2", buildCfg(buildRosslProgram(2)), 57, 68, 22, 22, 30},
      {"fds_run.rossl",
       buildCfg(parseOrDie(
           testutil::readTextFile(RPROSA_EXAMPLES_DIR "/fds_run.rossl"))),
       57, 68, 22, 22, 30},
      {"loops-100", buildCfg(parseOrDie(testutil::loopLadderSource(100))),
       1261, 1574, 322, 322, 430},
  };
  for (const Pinned &P : Want) {
    SCOPED_TRACE(P.Program);
    const Cfg &G = P.G;
    CfgOrder Order = CfgOrder::compute(G);
    Solution<RangeState> Range = solve(G, RangeDomain(G.numRegs()), Order);
    Solution<ZoneState> Zone = solve(G, ZoneDomain(G.numRegs(), 2), Order);
    Solution<InitState> Init =
        solve(G, InitDomain(G.numRegs(), G.numBufs()), Order);
    Solution<MarkerState> Marker = solve(G, MarkerDomain{}, Order);
    Solution<std::vector<bool>> Live =
        solve(G, LiveDomain(G.numRegs()), Order, Direction::Backward);
    EXPECT_TRUE(Range.Converged);
    EXPECT_TRUE(Zone.Converged);
    EXPECT_TRUE(Init.Converged);
    EXPECT_TRUE(Marker.Converged);
    EXPECT_TRUE(Live.Converged);
    EXPECT_EQ(Range.NodeVisits, P.Range);
    EXPECT_EQ(Zone.NodeVisits, P.Zone);
    EXPECT_EQ(Init.NodeVisits, P.Init);
    EXPECT_EQ(Marker.NodeVisits, P.Marker);
    EXPECT_EQ(Live.NodeVisits, P.Live);
  }
}

//===----------------------------------------------------------------------===//
// Interval arithmetic and refinement
//===----------------------------------------------------------------------===//

TEST(Interval, AddFlagsOverflowOnlyWhenBoundsEscape) {
  RangeFlags F;
  ValueInterval R = intervalAdd(ValueInterval::range(0, 10),
                                ValueInterval::range(-3, 3), F);
  EXPECT_EQ(R, ValueInterval::range(-3, 13));
  EXPECT_FALSE(F.MayOverflow);

  RangeFlags G;
  intervalAdd(ValueInterval::constant(INT64_MAX),
              ValueInterval::range(0, 1), G);
  EXPECT_TRUE(G.MayOverflow);
  EXPECT_FALSE(G.DefOverflow) << "the +0 corner stays representable";

  RangeFlags H;
  intervalAdd(ValueInterval::constant(INT64_MAX),
              ValueInterval::constant(1), H);
  EXPECT_TRUE(H.DefOverflow) << "every value of the interval escapes";
}

TEST(Interval, SubFlagsOverflowAtTheMinCorner) {
  RangeFlags F;
  intervalSub(ValueInterval::constant(INT64_MIN),
              ValueInterval::range(0, 1), F);
  EXPECT_TRUE(F.MayOverflow);
}

TEST(Interval, DivCornersAndZeroDivisor) {
  RangeFlags F;
  ValueInterval Q = intervalDiv(ValueInterval::range(10, 20),
                                ValueInterval::range(2, 5), F);
  EXPECT_EQ(Q, ValueInterval::range(2, 10));
  EXPECT_FALSE(F.MayDivZero);

  RangeFlags G;
  intervalDiv(ValueInterval::range(1, 10), ValueInterval::range(-1, 1), G);
  EXPECT_TRUE(G.MayDivZero);
  EXPECT_FALSE(G.DefDivZero) << "nonzero divisors exist in the range";

  RangeFlags H;
  intervalDiv(ValueInterval::range(1, 10), ValueInterval::constant(0), H);
  EXPECT_TRUE(H.DefDivZero);

  RangeFlags I;
  intervalDiv(ValueInterval::constant(INT64_MIN),
              ValueInterval::constant(-1), I);
  EXPECT_TRUE(I.DefOverflow) << "INT64_MIN / -1 is the one escaping "
                                "quotient";
}

TEST(Interval, ModBoundsMagnitudeAndSign) {
  RangeFlags F;
  ValueInterval R = intervalMod(ValueInterval::range(0, 100),
                                ValueInterval::range(3, 7), F);
  EXPECT_EQ(R, ValueInterval::range(0, 6)) << R.str();
  EXPECT_FALSE(F.MayDivZero);

  RangeFlags G;
  ValueInterval S = intervalMod(ValueInterval::range(-100, -1),
                                ValueInterval::range(3, 7), G);
  EXPECT_EQ(S, ValueInterval::range(-6, 0)) << S.str();
}

TEST(Interval, WidenSendsMovingBoundsToInfinity) {
  ValueInterval I = ValueInterval::range(0, 3);
  EXPECT_FALSE(I.widenWith(ValueInterval::range(0, 3)));
  EXPECT_TRUE(I.widenWith(ValueInterval::range(0, 4)));
  EXPECT_EQ(I.Lo, 0);
  EXPECT_EQ(I.Hi, INT64_MAX);
  EXPECT_TRUE(I.widenWith(ValueInterval::range(-1, 0)));
  EXPECT_EQ(I.Lo, INT64_MIN);
}

TEST(Interval, RefineLessNarrowsBothSides) {
  RangeState S;
  S.Reachable = true;
  S.Regs.assign(2, ValueInterval::range(0, 100));
  // r0 < 10 on the true edge.
  ExprPtr C = TA.less(TA.reg(0), TA.lit(10));
  RangeState T = S;
  ASSERT_TRUE(refineByCondition(*C, true, T));
  EXPECT_EQ(T.Regs[0], ValueInterval::range(0, 9));
  RangeState FSt = S;
  ASSERT_TRUE(refineByCondition(*C, false, FSt));
  EXPECT_EQ(FSt.Regs[0], ValueInterval::range(10, 100));
}

TEST(Interval, RefineDetectsInfeasibleEdges) {
  RangeState S;
  S.Reachable = true;
  S.Regs.assign(1, ValueInterval::constant(5));
  ExprPtr C = TA.less(TA.reg(0), TA.lit(3));
  RangeState T = S;
  EXPECT_FALSE(refineByCondition(*C, true, T)) << "5 < 3 cannot hold";
  ExprPtr E = TA.eq(TA.reg(0), TA.lit(5));
  RangeState U = S;
  EXPECT_FALSE(refineByCondition(*E, false, U)) << "5 != 5 cannot hold";
}

//===----------------------------------------------------------------------===//
// Widening behaviour of the value-range instance
//===----------------------------------------------------------------------===//

TEST(ValueRange, SelfLoopWideningConvergesAndFlagsNothing) {
  // `while (1) {}` — the head is its own back-edge source; the solve
  // must terminate (widening caps the chain) with no arithmetic
  // findings, and dead-code must report the unreachable exit as a NOTE
  // (an intentional server loop, not a defect).
  Cfg G = buildCfg(parseOrDie("while (1) {}\n"));
  ValueRangeResult R = analyzeValueRanges(G);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Findings.empty());
  std::vector<Finding> Dead = analyzeDeadCode(G);
  ASSERT_FALSE(Dead.empty());
  bool SawExitNote = false;
  for (const Finding &F : Dead)
    if (F.Message.find("never terminates") != std::string::npos) {
      EXPECT_EQ(F.Sev, Severity::Note);
      SawExitNote = true;
    }
  EXPECT_TRUE(SawExitNote);
}

TEST(ValueRange, UnboundedCounterWidensToOverflowWarning) {
  Cfg G = buildCfg(parseOrDie("while (1) { r0 = (r0 + 1); }\n"));
  ValueRangeResult R = analyzeValueRanges(G);
  ASSERT_TRUE(R.Converged);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].CheckId, "value-range.signed-overflow");
  EXPECT_EQ(R.Findings[0].Sev, Severity::Warning);
  ASSERT_FALSE(R.Findings[0].Witness.empty());
  EXPECT_EQ(R.Findings[0].Witness.front(), "n0: entry");
}

TEST(ValueRange, BoundedCounterLoopStaysPrecise) {
  // The loop-exit refinement pins r0's lower bound at the exit even
  // after the head widens its upper bound away; no overflow is flagged
  // either way. Raising WidenAfter past the trip count recovers the
  // exact exit value — precision is the knob, soundness is not.
  Cfg G = buildCfg(
      parseOrDie("r0 = 0;\nwhile ((r0 < 3)) { r0 = (r0 + 1); }\n"));
  ValueRangeResult R = analyzeValueRanges(G);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Findings.empty())
      << renderText("<test>", R.Findings);
  EXPECT_EQ(R.In[G.Exit].Regs[0].Lo, 3) << R.In[G.Exit].Regs[0].str();

  AnalysisOptions Patient;
  Patient.Solve.WidenAfter = 8; // Past the trip count: no widening.
  ValueRangeResult P = analyzeValueRanges(G, Patient);
  EXPECT_TRUE(P.Converged);
  EXPECT_EQ(P.In[G.Exit].Regs[0], ValueInterval::range(3, 3))
      << P.In[G.Exit].Regs[0].str();
}

TEST(ValueRange, InnerLoopDoesNotWidenOuterCounterAway) {
  // The regression the back-edge-only widening fixes: an inner loop
  // whose head sees the OUTER counter grow must not widen it past its
  // bound — r0's increment stays overflow-free because the r0 < 4
  // refinement survives the inner head.
  Cfg G = buildCfg(parseOrDie("r0 = 0;\n"
                              "while ((r0 < 4)) {\n"
                              "  r1 = 0;\n"
                              "  while ((r1 < 4)) { r1 = (r1 + 1); }\n"
                              "  r0 = (r0 + 1);\n"
                              "}\n"));
  ValueRangeResult R = analyzeValueRanges(G);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Findings.empty())
      << renderText("<test>", R.Findings);
}

TEST(ValueRange, ConstantSocketOutOfRangeIsAnError) {
  Cfg G = buildCfg(parseOrDie("r1 = read(r0, buf0);\n"));
  AnalysisOptions Opts;
  Opts.NumSockets = 2;
  // r0 is 0: fine for two sockets.
  EXPECT_TRUE(analyzeValueRanges(G, Opts).Findings.empty());

  Cfg H = buildCfg(parseOrDie("r0 = 7;\nr1 = read(r0, buf0);\n"));
  ValueRangeResult R = analyzeValueRanges(H, Opts);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].CheckId, "value-range.socket-range");
  EXPECT_EQ(R.Findings[0].Sev, Severity::Error);
  EXPECT_NE(R.Findings[0].Message.find("is always outside [0, 2)"),
            std::string::npos)
      << R.Findings[0].Message;
}

//===----------------------------------------------------------------------===//
// The zone (difference-bound) domain under the witness layer
//===----------------------------------------------------------------------===//

TEST(Zone, ContradictoryDifferenceConstraintsEmptyTheZone) {
  Zone Z(3);
  EXPECT_FALSE(Z.isEmpty());
  EXPECT_TRUE(Z.constrain(1, 2, 5));   // x1 - x2 <= 5
  EXPECT_FALSE(Z.constrain(2, 1, -6)); // x2 - x1 <= -6: x1 - x2 >= 6
  EXPECT_TRUE(Z.isEmpty());
}

TEST(Zone, ClosureTightensTransitively) {
  Zone Z(4);
  ASSERT_TRUE(Z.constrain(1, 2, 2)); // x1 - x2 <= 2
  ASSERT_TRUE(Z.constrain(2, 3, 3)); // x2 - x3 <= 3, so x1 - x3 <= 5
  Zone Feasible = Z;
  EXPECT_TRUE(Feasible.constrain(3, 1, -5)); // x1 - x3 >= 5: tight, ok
  Zone Infeasible = Z;
  EXPECT_FALSE(Infeasible.constrain(3, 1, -6)); // x1 - x3 >= 6
  EXPECT_TRUE(Infeasible.isEmpty());
}

TEST(Zone, SetConstForgetAndBounds) {
  Zone Z(2);
  EXPECT_EQ(Z.lo(1), INT64_MIN);
  EXPECT_EQ(Z.hi(1), INT64_MAX);
  Z.setConst(1, 42);
  EXPECT_EQ(Z.lo(1), 42);
  EXPECT_EQ(Z.hi(1), 42);
  Z.forget(1);
  EXPECT_EQ(Z.lo(1), INT64_MIN);
  EXPECT_EQ(Z.hi(1), INT64_MAX);
}

TEST(Zone, SetCopyShiftTracksTheRelationNotJustTheInterval) {
  // x2 := x1 + 5 with x1 unbounded: intervals know nothing, the zone
  // still refutes x2 - x1 <= 4 — the fact the witness layer lives on.
  Zone Z(3);
  Z.setCopyShift(2, 1, 5);
  DiffExpr D;
  D.Ok = true;
  D.Pos = 2;
  D.Neg = 1;
  EXPECT_FALSE(constrainDiffLe(Z, D, 4));
  Zone Y(3);
  Y.setCopyShift(2, 1, 5);
  EXPECT_TRUE(constrainDiffLe(Y, D, 5));
  EXPECT_TRUE(constrainDiffGe(Y, D, 5));
  EXPECT_FALSE(Y.isEmpty());
}

TEST(Zone, JoinIsTheConvexHullAndWideningJumpsToInfinity) {
  Zone A(2), B(2);
  A.setConst(1, 1);
  B.setConst(1, 5);
  EXPECT_TRUE(A.joinWith(B));
  EXPECT_EQ(A.lo(1), 1);
  EXPECT_EQ(A.hi(1), 5);

  auto interval = [](std::int64_t Lo, std::int64_t Hi) {
    Zone Z(2);
    EXPECT_TRUE(Z.constrain(1, 0, Hi)); // x1 <= Hi
    EXPECT_TRUE(Z.constrain(0, 1, -Lo)); // -x1 <= -Lo
    return Z;
  };
  Zone W = interval(0, 1);
  W.joinWith(interval(0, 2));
  EXPECT_EQ(W.hi(1), 2);
  Zone Wider = interval(0, 3);
  EXPECT_TRUE(W.widenWith(Wider));
  EXPECT_EQ(W.lo(1), 0) << "stable lower bound survives widening";
  EXPECT_EQ(W.hi(1), INT64_MAX) << "grown upper bound jumps to +inf";
}

TEST(Zone, DiffExprRecognizesExactlyTheAffineForms) {
  DiffExpr D = diffExprOf(
      *TA.add(TA.sub(TA.reg(7), TA.reg(2)), TA.lit(9)));
  ASSERT_TRUE(D.Ok);
  EXPECT_EQ(D.Pos, 8u); // reg r -> var r + 1
  EXPECT_EQ(D.Neg, 3u);
  EXPECT_EQ(static_cast<long long>(D.K), 9);
  EXPECT_FALSE(diffExprOf(*TA.divE(TA.reg(1), TA.reg(2))).Ok);
  EXPECT_FALSE(
      diffExprOf(*TA.add(TA.reg(1), TA.reg(2))).Ok)
      << "two positive variables do not form a difference";
}

TEST(ZoneDomain, InnerLoopDoesNotWidenOuterCounterAway) {
  // The zone-domain mirror of the interval regression above: the inner
  // spin loop must not widen the OUTER counter past its bound — the
  // r0 < 4 edge refinement has to survive the inner head, keeping
  // hi(r0) == 3 at the increment and lo(r0) == 4 at Exit.
  Cfg G = buildCfg(parseOrDie("r0 = 0;\n"
                              "while ((r0 < 4)) {\n"
                              "  r1 = 0;\n"
                              "  while ((r1 < 4)) { r1 = (r1 + 1); }\n"
                              "  r0 = (r0 + 1);\n"
                              "}\n"));
  CfgOrder Order = CfgOrder::compute(G);
  ZoneDomain Dom(G.numRegs(), 2);
  Solution<ZoneState> Sol = solve(G, Dom, Order);
  ASSERT_TRUE(Sol.Converged);

  NodeId Incr = InvalidNode;
  for (NodeId N = 0; N < G.size(); ++N)
    if (G[N].label() == "r0 = (r0 + 1)")
      Incr = N;
  ASSERT_NE(Incr, InvalidNode);
  ASSERT_TRUE(Sol.In[Incr].Reachable);
  EXPECT_EQ(Sol.In[Incr].Z.hi(1), 3)
      << "the outer bound must survive the inner loop's widening";
  EXPECT_GE(Sol.In[Incr].Z.lo(1), 0);
  ASSERT_TRUE(Sol.In[G.Exit].Reachable);
  EXPECT_EQ(Sol.In[G.Exit].Z.lo(1), 4);
}

//===----------------------------------------------------------------------===//
// Definite-init: engine-backed, with the lint pass's exact contract
//===----------------------------------------------------------------------===//

TEST(DefiniteInit, MatchesLintDefBeforeUseExactly) {
  // The lint wraps the analysis; both views must agree message-for-
  // message on a program with both register and buffer findings.
  Cfg G = buildCfg(parseOrDie("r1 = (r5 + r7);\nnpfp_enqueue(&sched, "
                              "buf3);\n"));
  std::vector<Finding> Fs = analyzeDefiniteInit(G);
  std::vector<LintFinding> Ls = lintDefBeforeUse(G);
  ASSERT_EQ(Fs.size(), Ls.size());
  ASSERT_EQ(Fs.size(), 3u) << "r5, r7, buf3";
  std::size_t Regs = 0, Bufs = 0;
  for (std::size_t I = 0; I < Fs.size(); ++I) {
    EXPECT_EQ(Fs[I].Message, Ls[I].Message);
    EXPECT_EQ(Fs[I].Node, Ls[I].Node);
    EXPECT_EQ(Ls[I].Pass, "def-before-use");
    Regs += Fs[I].CheckId == "definite-init.register";
    Bufs += Fs[I].CheckId == "definite-init.buffer";
  }
  EXPECT_EQ(Regs, 2u);
  EXPECT_EQ(Bufs, 1u);
}

TEST(DefiniteInit, BranchyInitOnOnePathOnlyIsFlagged) {
  Cfg G = buildCfg(parseOrDie("if (r0) { r1 = 1; }\nr2 = (r1 + 1);\n"));
  std::vector<Finding> Fs = analyzeDefiniteInit(G);
  bool SawR1 = false;
  for (const Finding &F : Fs)
    SawR1 |= F.Message.find("r1") != std::string::npos;
  EXPECT_TRUE(SawR1) << "r1 unset on the else path";
}

//===----------------------------------------------------------------------===//
// Marker discipline
//===----------------------------------------------------------------------===//

TEST(MarkerDiscipline, FlagsDroppedCompletionAndSwappedMarkers) {
  for (const Mutant &M : protocolMutantCorpus(2)) {
    std::vector<Finding> Fs =
        analyzeMarkerDiscipline(buildCfg(M.Program));
    if (M.Name == "dropped-completion") {
      ASSERT_FALSE(Fs.empty()) << M.Name;
      EXPECT_NE(Fs[0].Message.find("still open"), std::string::npos);
    } else if (M.Name == "dropped-dispatch" ||
               M.Name == "reordered-dispatch") {
      ASSERT_FALSE(Fs.empty()) << M.Name;
      EXPECT_NE(Fs[0].Message.find("without a preceding dispatch_start"),
                std::string::npos)
          << Fs[0].Message;
    }
  }
  EXPECT_TRUE(
      analyzeMarkerDiscipline(buildCfg(buildRosslProgram(2))).empty());
}

//===----------------------------------------------------------------------===//
// The unified report: ordering and byte-pinned renderings
//===----------------------------------------------------------------------===//

namespace {

/// The pin program: one definite-init finding and a definite division
/// by zero on line 1, a constant branch hiding dead code on line 2.
const char *PinSource = "r1 = (r0 / r0);\nif (0) { r2 = 1; }\n";

const char *PinText =
    "pin.rossl:1: warning: [definite-init.register] register r0 read at "
    "n4 (r1 = (r0 / r0)) with no prior assignment on some path (the "
    "machine zero-initialises; make it explicit)\n"
    "pin.rossl:1: error: [value-range.div-by-zero] division by zero in "
    "(r0 / r0) at n4 (r1 = (r0 / r0)): divisor in [0, 0]\n"
    "  n0: entry\n"
    "  n4: r1 = (r0 / r0)\n"
    "pin.rossl:2: warning: [dead-code.constant-branch] branch n3 (branch "
    "0) never takes its true edge (condition is always 0)\n"
    "pin.rossl:2: warning: [dead-code.unreachable] statement n2 (r2 = 1) "
    "is unreachable: no feasible path (value ranges)\n";

} // namespace

TEST(UnifiedReport, FindingsAreSortedByLineCheckIdNode) {
  std::vector<Finding> Fs =
      runUnifiedAnalyses(buildCfg(parseOrDie(PinSource)));
  ASSERT_EQ(Fs.size(), 4u);
  for (std::size_t I = 1; I < Fs.size(); ++I) {
    auto Key = [](const Finding &F) {
      return std::make_tuple(F.Line, F.CheckId, F.Node, F.Message);
    };
    EXPECT_LE(Key(Fs[I - 1]), Key(Fs[I]));
  }
  EXPECT_EQ(maxSeverity(Fs), Severity::Error);
}

TEST(UnifiedReport, TextRenderingIsBytePinned) {
  std::vector<Finding> Fs =
      runUnifiedAnalyses(buildCfg(parseOrDie(PinSource)));
  EXPECT_EQ(renderText("pin.rossl", Fs), PinText);
  // Determinism across repeat solves: same bytes, not merely same set.
  std::vector<Finding> Again =
      runUnifiedAnalyses(buildCfg(parseOrDie(PinSource)));
  EXPECT_EQ(renderText("pin.rossl", Again), PinText);
}

TEST(UnifiedReport, SarifRenderingIsWellFormedAndPinned) {
  std::vector<Finding> Fs =
      runUnifiedAnalyses(buildCfg(parseOrDie(PinSource)));
  std::string S = renderSarif("pin.rossl", Fs);
  // Structural pins (full-byte equality is covered via the text pin;
  // here the SARIF-specific envelope is checked).
  EXPECT_NE(S.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(S.find("\"name\": \"rp_verify\""), std::string::npos);
  EXPECT_NE(S.find("\"ruleId\": \"value-range.div-by-zero\""),
            std::string::npos);
  // The populated driver.rules array: one entry per distinct check-id,
  // sorted, each result pointing back via ruleIndex.
  EXPECT_NE(S.find("\"rules\": ["), std::string::npos);
  EXPECT_NE(S.find("{\"id\": \"dead-code.constant-branch\", "
                   "\"shortDescription\""),
            std::string::npos)
      << S;
  std::size_t FirstRule = S.find("{\"id\": \"dead-code.constant-branch\"");
  std::size_t SecondRule = S.find("{\"id\": \"dead-code.unreachable\"");
  std::size_t ThirdRule = S.find("{\"id\": \"definite-init.register\"");
  std::size_t FourthRule = S.find("{\"id\": \"value-range.div-by-zero\"");
  EXPECT_LT(FirstRule, SecondRule);
  EXPECT_LT(SecondRule, ThirdRule);
  EXPECT_LT(ThirdRule, FourthRule) << "rules sorted by id";
  EXPECT_NE(S.find("\"ruleIndex\": 0"), std::string::npos);
  EXPECT_NE(S.find("\"ruleIndex\": 3"), std::string::npos)
      << "the div-by-zero result must reference the 4th rule";
  EXPECT_NE(S.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(S.find("\"uri\": \"pin.rossl\""), std::string::npos);
  EXPECT_NE(S.find("\"startLine\": 1"), std::string::npos);
  EXPECT_NE(S.find("\"witness\": [\"n0: entry\", \"n4: r1 = (r0 / "
                   "r0)\"]"),
            std::string::npos)
      << S;
  EXPECT_EQ(S, renderSarif("pin.rossl", Fs)) << "byte-stable";
  EXPECT_EQ(std::count(S.begin(), S.end(), '{'),
            std::count(S.begin(), S.end(), '}'));
  EXPECT_EQ(std::count(S.begin(), S.end(), '['),
            std::count(S.begin(), S.end(), ']'));
}

TEST(UnifiedReport, SarifEscapesControlAndQuoteCharacters) {
  std::vector<Finding> Fs;
  Fs.push_back({"test.escape", Severity::Note, 0, 1,
                "quote \" backslash \\ newline \n tab \t bell \x07 done",
                {}, std::nullopt});
  std::string S = renderSarif("f", Fs);
  EXPECT_NE(S.find("quote \\\" backslash \\\\ newline \\n tab \\t bell "
                   "\\u0007 done"),
            std::string::npos)
      << S;
}

TEST(UnifiedReport, TextRenderingEscapesControlCharacters) {
  // Messages are parser-adjacent strings: control characters must not
  // break the one-finding-per-block shape of the text report.
  std::vector<Finding> Fs;
  Fs.push_back({"check\tid", Severity::Note, 0, 1,
                "line1\nline2 \x01 end", {"step \x7f"}, std::nullopt});
  std::string T = renderText("f", Fs);
  EXPECT_NE(T.find("[check\\tid] line1\\nline2 \\x01 end"),
            std::string::npos)
      << T;
  EXPECT_NE(T.find("  step \\x7f\n"), std::string::npos) << T;
  EXPECT_EQ(std::count(T.begin(), T.end(), '\n'), 2)
      << "exactly one line per finding plus one per witness step";
}

TEST(UnifiedReport, SarifEscapesBackspaceFormfeedAndUnitSeparator) {
  std::vector<Finding> Fs;
  Fs.push_back({"test.escape", Severity::Note, 0, 1,
                "bs \b ff \f us \x1f done", {}, std::nullopt});
  std::string S = renderSarif("f", Fs);
  EXPECT_NE(S.find("bs \\b ff \\f us \\u001f done"), std::string::npos)
      << S;
}

//===----------------------------------------------------------------------===//
// Witness-refined renderings: byte-pinned text and SARIF codeFlows
//===----------------------------------------------------------------------===//

namespace {

/// One May div-by-zero: the divisor is zero exactly when the read
/// fails, so the refinement confirms via a replayed failed read.
const char *WitnessPinSource =
    "r0 = 0;\nr1 = read(r0, buf0);\nr2 = (1000 / (r1 + 1));\n";

const char *WitnessPinText =
    "wpin.rossl:3: error: [value-range.div-by-zero] possible division by "
    "zero in (1000 / (r1 + 1)) at n2 (r2 = (1000 / (r1 + 1))): divisor "
    "in [0, 4294967296]\n"
    "  n0: entry\n"
    "  n4: r0 = 0\n"
    "  n3: r1 = read(r0, buf0)\n"
    "  n2: r2 = (1000 / (r1 + 1))\n"
    "  refinement: confirmed: replay trapped [value-range.div-by-zero] "
    "(4 search step(s))\n"
    "  replay-input: read(sock 0) -> fail\n"
    "  trap-path: n0 n4 n3 n2\n";

} // namespace

TEST(UnifiedReport, WitnessRefinedTextIsBytePinned) {
  Cfg G = buildCfg(parseOrDie(WitnessPinSource));
  std::vector<Finding> Fs = runUnifiedAnalyses(G);
  WitnessSummary Sum = refineFindings(G, Fs);
  EXPECT_EQ(Sum.Attempted, 1u);
  EXPECT_EQ(Sum.Confirmed, 1u);
  EXPECT_EQ(renderText("wpin.rossl", Fs), WitnessPinText);

  // Determinism: a second full pipeline produces the same bytes.
  Cfg H = buildCfg(parseOrDie(WitnessPinSource));
  std::vector<Finding> Again = runUnifiedAnalyses(H);
  (void)refineFindings(H, Again);
  EXPECT_EQ(renderText("wpin.rossl", Again), WitnessPinText);
}

TEST(UnifiedReport, SarifCarriesCodeFlowsAndRefinementForWitnesses) {
  Cfg G = buildCfg(parseOrDie(WitnessPinSource));
  std::vector<Finding> Fs = runUnifiedAnalyses(G);
  (void)refineFindings(G, Fs);
  std::string S = renderSarif("wpin.rossl", Fs);
  EXPECT_NE(S.find("\"codeFlows\": [{\"threadFlows\": [{\"locations\": ["),
            std::string::npos)
      << S;
  EXPECT_NE(S.find("{\"location\": {\"message\": {\"text\": \"n3: r1 = "
                   "read(r0, buf0)\"}"),
            std::string::npos)
      << S;
  EXPECT_NE(S.find("\"refinement\": {\"status\": \"confirmed\", "
                   "\"steps\": 4, \"trapCheckId\": "
                   "\"value-range.div-by-zero\", \"inputs\": "
                   "[\"read(sock 0) -> fail\"]}"),
            std::string::npos)
      << S;
  EXPECT_EQ(std::count(S.begin(), S.end(), '{'),
            std::count(S.begin(), S.end(), '}'));
  EXPECT_EQ(std::count(S.begin(), S.end(), '['),
            std::count(S.begin(), S.end(), ']'));
}

TEST(UnifiedReport, RefinementOffRendersLegacyBytes) {
  // The --witness-off contract: findings that were never refined render
  // exactly as before the witness layer existed (Refined is empty, no
  // refinement block, no codeFlows).
  Cfg G = buildCfg(parseOrDie(WitnessPinSource));
  std::vector<Finding> Fs = runUnifiedAnalyses(G);
  std::string T = renderText("wpin.rossl", Fs);
  EXPECT_EQ(T.find("refinement:"), std::string::npos);
  std::string S = renderSarif("wpin.rossl", Fs);
  EXPECT_EQ(S.find("codeFlows"), std::string::npos);
  EXPECT_EQ(S.find("refinement"), std::string::npos);
}

TEST(UnifiedReport, EmbeddedProgramIsCleanForSocketSweep) {
  for (std::uint32_t N : {1u, 2u, 4u}) {
    AnalysisOptions Opts;
    Opts.NumSockets = N;
    std::vector<Finding> Fs =
        runUnifiedAnalyses(buildCfg(buildRosslProgram(N)), Opts);
    EXPECT_TRUE(Fs.empty())
        << "N=" << N << ":\n" << renderText("<embedded>", Fs);
  }
}

//===----------------------------------------------------------------------===//
// Composition: the unified report and the refinement against their parts
//===----------------------------------------------------------------------===//

namespace {

/// One lint input: a program and the socket count it is analyzed at.
struct LintCase {
  std::string Name;
  Cfg G;
  std::uint32_t Sockets = 2;
};

constexpr int EditsPerSeed = 300;

/// The inputs of the composition tests: the Rössl program at 1..64
/// sockets, the example source at 1..4, the four mutant corpora at 2 and
/// 3, the 100- and 200-loop ladders, a program whose zone-suppressed May
/// finding follows a confirmed one, and EditsPerSeed seeded single edits
/// (test_util.h's Editor) each of the 2- and 3-socket Rössl programs.
/// \p Seed picks the edits, and each edit's name carries it.
std::vector<LintCase> compositionCases(std::uint64_t Seed) {
  std::vector<LintCase> Cases;
  for (std::uint32_t N = 1; N <= 64; ++N)
    Cases.push_back({"rossl", buildCfg(buildRosslProgram(N)), N});
  std::string Src =
      testutil::readTextFile(RPROSA_EXAMPLES_DIR "/fds_run.rossl");
  EXPECT_FALSE(Src.empty());
  Cfg Example = buildCfg(parseOrDie(Src));
  for (std::uint32_t N = 1; N <= 4; ++N)
    Cases.push_back({"fds_run.rossl", Example, N});
  for (std::uint32_t N : {2u, 3u})
    for (const std::vector<Mutant> &Corpus :
         {protocolMutantCorpus(N), timingMutantCorpus(N),
          valueRangeMutantCorpus(N), witnessMutantCorpus(N)})
      for (const Mutant &M : Corpus)
        Cases.push_back({M.Name, buildCfg(M.Program), N});
  for (std::uint32_t Loops : {100u, 200u})
    Cases.push_back({"loops-" + std::to_string(Loops),
                     buildCfg(parseOrDie(testutil::loopLadderSource(Loops))),
                     2});
  Cases.push_back({"confirmed-then-infeasible",
                   buildCfg(parseOrDie("r0 = 0;\n"
                                       "r1 = read(r0, buf0);\n"
                                       "r2 = (1000 / (r1 + 1));\n"
                                       "r7 = (r1 + 1);\n"
                                       "r6 = (1000 / (r7 - r1));\n")),
                   2});
  SplitMix64 Rng(Seed);
  for (std::uint32_t N : {2u, 3u}) {
    StmtPtr Base = buildRosslProgram(N);
    for (int Round = 0; Round < EditsPerSeed; ++Round) {
      const auto K = static_cast<testutil::EditKind>(Rng.nextInRange(0, 3));
      testutil::Editor Count(K, SIZE_MAX, 0);
      Count.stmt(Base);
      const std::size_t Sites =
          K == testutil::EditKind::Perturb ? Count.Lits : Count.Slots;
      const std::size_t Target = Rng.nextInRange(0, Sites - 1);
      const auto Delta = static_cast<Value>(Rng.nextInRange(1, 2)) *
                         (Rng.nextBernoulli(1, 2) ? 1 : -1);
      testutil::Editor Edit(K, Target, Delta);
      Cases.push_back({"edit " + std::to_string(Round) + " of rossl(" +
                           std::to_string(N) + ") (kind " +
                           std::to_string(int(K)) + ", site " +
                           std::to_string(Target) +
                           "); replay: RPROSA_FUZZ_SEED=" +
                           std::to_string(Seed),
                       buildCfg(Edit.stmt(Base)), N});
    }
  }
  return Cases;
}

/// runUnifiedAnalyses rebuilt from its public parts, the way a caller
/// that times each part composes it.
std::vector<Finding> unifiedFromParts(const Cfg &G,
                                      const AnalysisOptions &Opts) {
  std::vector<Finding> Out = analyzeValueRanges(G, Opts).Findings;
  for (const std::vector<Finding> &Part :
       {analyzeDefiniteInit(G), analyzeDeadCode(G, Opts),
        analyzeMarkerDiscipline(G)})
    Out.insert(Out.end(), Part.begin(), Part.end());
  for (auto Pass : {lintMarkerBalance, lintFuelTermination,
                    lintMachineRange})
    for (LintFinding &F : Pass(G))
      Out.push_back({F.Pass, Severity::Warning, F.Node, G[F.Node].Line,
                     std::move(F.Message), {}, std::nullopt});
  sortFindings(Out);
  return Out;
}

/// The fields in which two findings differ, refinement record included
/// ("" when they agree on every one).
std::string differingFields(const Finding &A, const Finding &B) {
  std::string Out;
  auto Field = [&Out](bool Same, const char *Name) {
    if (!Same)
      Out += (Out.empty() ? "" : ", ") + std::string(Name);
  };
  Field(A.CheckId == B.CheckId, "check-id");
  Field(A.Sev == B.Sev, "severity");
  Field(A.Node == B.Node, "node");
  Field(A.Line == B.Line, "line");
  Field(A.Message == B.Message, "message");
  Field(A.Witness == B.Witness, "witness path");
  Field(A.Refined.has_value() == B.Refined.has_value(), "refinement");
  if (!A.Refined || !B.Refined)
    return Out;
  const WitnessRefinement &RA = *A.Refined, &RB = *B.Refined;
  bool SamePath = RA.Path.size() == RB.Path.size();
  for (std::size_t I = 0; SamePath && I < RA.Path.size(); ++I)
    SamePath = RA.Path[I].Node == RB.Path[I].Node &&
               RA.Path[I].Line == RB.Path[I].Line &&
               RA.Path[I].Label == RB.Path[I].Label;
  Field(RA.St == RB.St, "refinement status");
  Field(RA.Detail == RB.Detail, "refinement detail");
  Field(SamePath, "trap path");
  Field(RA.Inputs == RB.Inputs, "replay inputs");
  Field(RA.TrapCheckId == RB.TrapCheckId, "trap check-id");
  Field(RA.Steps == RB.Steps, "search steps");
  return Out;
}

/// Compares two finding lists field by field; returns false and names
/// the first difference on a mismatch.
bool sameFindings(const std::vector<Finding> &Got,
                  const std::vector<Finding> &Want, const std::string &What) {
  std::string Diff =
      Got.size() == Want.size()
          ? ""
          : std::to_string(Got.size()) + " vs " +
                std::to_string(Want.size()) + " findings";
  for (std::size_t I = 0; Diff.empty() && I < Got.size(); ++I)
    if (std::string F = differingFields(Got[I], Want[I]); !F.empty())
      Diff = "finding " + std::to_string(I) + ": " + F + " differ";
  if (Diff.empty())
    return true;
  ADD_FAILURE() << What << ": " << Diff << "\ngot:\n"
                << renderText("<got>", Got) << "want:\n"
                << renderText("<want>", Want);
  return false;
}

void addSummary(WitnessSummary &Into, const WitnessSummary &S) {
  Into.Attempted += S.Attempted;
  Into.Confirmed += S.Confirmed;
  Into.WitnessOnly += S.WitnessOnly;
  Into.Suppressed += S.Suppressed;
  Into.Unknown += S.Unknown;
  Into.Steps += S.Steps;
}

void expectSameSummary(const WitnessSummary &Got, const WitnessSummary &Want,
                       const std::string &What) {
  EXPECT_EQ(Got.Attempted, Want.Attempted) << What;
  EXPECT_EQ(Got.Confirmed, Want.Confirmed) << What;
  EXPECT_EQ(Got.WitnessOnly, Want.WitnessOnly) << What;
  EXPECT_EQ(Got.Suppressed, Want.Suppressed) << What;
  EXPECT_EQ(Got.Unknown, Want.Unknown) << What;
  EXPECT_EQ(Got.Steps, Want.Steps) << What;
}

} // namespace

TEST(UnifiedReport, EqualsItsParts) {
  const std::uint64_t Seed = testutil::fuzzSeed(25);
  std::size_t EditRanges = 0, EditDeadCode = 0, Failures = 0;
  for (const LintCase &C : compositionCases(Seed)) {
    AnalysisOptions Opts;
    Opts.NumSockets = C.Sockets;
    std::vector<Finding> Unified = runUnifiedAnalyses(C.G, Opts);
    if (!sameFindings(Unified, unifiedFromParts(C.G, Opts),
                      C.Name + " (N=" + std::to_string(C.Sockets) + ")") &&
        ++Failures == 3)
      break;
    if (C.Name.rfind("edit ", 0) != 0)
      continue;
    for (const Finding &F : Unified) {
      EditRanges += F.CheckId.rfind("value-range.", 0) == 0;
      EditDeadCode += F.CheckId.rfind("dead-code.", 0) == 0;
    }
  }
  // The edits must reach both analyses the unified run shares one
  // interval solve between, or the comparison says little about it.
  EXPECT_GT(EditRanges, 0u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
  EXPECT_GT(EditDeadCode, 0u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
}

TEST(Witness, RefinesEachFindingAsIfAlone) {
  const std::uint64_t Seed = testutil::fuzzSeed(25);
  std::size_t Confirmed = 0, Infeasible = 0, Failures = 0;
  for (const LintCase &C : compositionCases(Seed)) {
    const std::string What =
        C.Name + " (N=" + std::to_string(C.Sockets) + ")";
    AnalysisOptions Opts;
    Opts.NumSockets = C.Sockets;
    WitnessOptions WOpts;
    WOpts.NumSockets = C.Sockets;
    const std::vector<Finding> Fs = runUnifiedAnalyses(C.G, Opts);
    std::vector<Finding> Whole = Fs, Alone;
    const WitnessSummary Sum = refineFindings(C.G, Whole, WOpts);
    WitnessSummary Parts;
    for (const Finding &F : Fs) {
      std::vector<Finding> One{F};
      addSummary(Parts, refineFindings(C.G, One, WOpts));
      Alone.push_back(std::move(One.front()));
    }
    expectSameSummary(Sum, Parts, What);
    if (!sameFindings(Whole, Alone, What) && ++Failures == 3)
      break;
    for (const Finding &F : Whole) {
      if (!F.Refined)
        continue;
      Confirmed += F.Refined->St == WitnessRefinement::Status::Confirmed;
      Infeasible += F.Refined->St == WitnessRefinement::Status::Infeasible;
    }
  }
  EXPECT_GT(Confirmed, 0u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
  EXPECT_GT(Infeasible, 0u) << "replay: RPROSA_FUZZ_SEED=" << Seed;
}

TEST(Witness, ListWithoutMayRangeFindingComesBackUnchanged) {
  // Definite-init and marker warnings, a definite division by zero (an
  // Error) and a May division by zero turned into a Note: nothing here
  // is a May value-range finding, so nothing may change.
  Cfg G = buildCfg(parseOrDie("dispatch_start(buf0);\n"
                              "execution_start(buf1);\n"
                              "r1 = read(r0, buf0);\n"
                              "r2 = (1000 / (r1 + 1));\n"
                              "r3 = (r4 / 0);\n"));
  std::vector<Finding> Fs = runUnifiedAnalyses(G);
  std::size_t Init = 0, Marker = 0, Errors = 0, Notes = 0;
  for (Finding &F : Fs) {
    if (F.Sev == Severity::Warning && F.CheckId.rfind("value-range.", 0) == 0)
      F.Sev = Severity::Note;
    Init += F.CheckId.rfind("definite-init.", 0) == 0;
    Marker += F.CheckId.rfind("marker-", 0) == 0;
    Errors += F.Sev == Severity::Error &&
              F.CheckId.rfind("value-range.", 0) == 0;
    Notes += F.Sev == Severity::Note;
  }
  ASSERT_GT(Init, 0u) << renderText("<list>", Fs);
  ASSERT_GT(Marker, 0u) << renderText("<list>", Fs);
  ASSERT_GT(Errors, 0u) << renderText("<list>", Fs);
  ASSERT_GT(Notes, 0u) << renderText("<list>", Fs);
  std::vector<Finding> Refined = Fs;
  expectSameSummary(refineFindings(G, Refined), WitnessSummary{}, "summary");
  sameFindings(Refined, Fs, "the list");
}

//===----------------------------------------------------------------------===//
// Death and cap edges
//===----------------------------------------------------------------------===//

TEST(DataflowDeath, NullProgramAbortsWithDiagnostic) {
  EXPECT_DEATH(buildCfg(nullptr), "null program");
}

TEST(CapEdges, NestingJustUnderTheParserCapAnalyzesFine) {
  // 200 stacked negations stay under the parser's recursion cap (256);
  // the lowered assign must analyze without findings.
  std::string Src = "r0 = ";
  for (int I = 0; I < 200; ++I)
    Src += "!";
  Src += "1;\n";
  ValueRangeResult R = analyzeValueRanges(buildCfg(parseOrDie(Src)));
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Findings.empty());
}

TEST(CapEdges, MaxRegisterIndexTripsTheMachineRangeLint) {
  // r4095 parses (the cap) but implies 4096 registers — far past the
  // machine's 8; the unified report must say so.
  std::vector<Finding> Fs =
      runUnifiedAnalyses(buildCfg(parseOrDie("r4095 = 1;\n")));
  bool Saw = false;
  for (const Finding &F : Fs)
    Saw |= F.CheckId == "machine-range" &&
           F.Message.find("4096") != std::string::npos;
  EXPECT_TRUE(Saw) << renderText("<cap>", Fs);
}

TEST(CapEdges, SolverReportsNonConvergenceInsteadOfHanging) {
  // One round is never enough for a loop: the backstop must trip and be
  // reported honestly.
  Cfg G = buildCfg(parseOrDie("while ((r0 < 3)) { r0 = (r0 + 1); }\n"));
  AnalysisOptions Opts;
  Opts.Solve.MaxRounds = 1;
  ValueRangeResult R = analyzeValueRanges(G, Opts);
  EXPECT_FALSE(R.Converged);
}

//===----------------------------------------------------------------------===//
// Source lines ride from the parser through to the findings
//===----------------------------------------------------------------------===//

TEST(Lines, ParserStampsAndFindingsCarryThem) {
  Cfg G = buildCfg(parseOrDie("r0 = 1;\nr1 = 2;\nr2 = (r9 / 0);\n"));
  ValueRangeResult R = analyzeValueRanges(G);
  ASSERT_FALSE(R.Findings.empty());
  EXPECT_EQ(R.Findings[0].Line, 3u);
  // Programmatically-built ASTs have no lines; findings degrade to 0.
  ValueRangeResult P = analyzeValueRanges(
      buildCfg(TA.setReg(0, TA.divE(TA.lit(1), TA.lit(0)))));
  ASSERT_FALSE(P.Findings.empty());
  EXPECT_EQ(P.Findings[0].Line, 0u);
}
