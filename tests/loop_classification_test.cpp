//===- tests/loop_classification_test.cpp - Loops from one SCC pass -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cycleComponents and the two passes built on it: inferLoopBounds
/// (timing/loop_bounds.h) and lintFuelTermination (lint.h). Both are
/// checked field by field against the quadratic reachability
/// formulation they replace, kept here as the reference: on seeded
/// random structured programs (RPROSA_FUZZ_SEED replay lines), on the
/// loop-ladder shape of the end-to-end benchmark, and on hand-built
/// graphs the lowering never produces (cycles unreachable from Entry).
///
//===----------------------------------------------------------------------===//

#include "analysis/lint.h"
#include "analysis/timing/loop_bounds.h"

#include "caesium/parser.h"
#include "caesium/print.h"
#include "support/rng.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::testutil;
namespace cs = rprosa::caesium;

static cs::AstArena &TA = testArena();

namespace {

//===----------------------------------------------------------------------===//
// The reference: one reachability matrix, one region copy and one
// whole-graph counter scan per loop head
//===----------------------------------------------------------------------===//

namespace reference {

/// Out[A][B] iff a non-empty path A -> ... -> B exists.
std::vector<std::vector<bool>> reachability(const Cfg &G) {
  std::size_t N = G.size();
  std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
  for (NodeId A = 0; A < N; ++A) {
    const Cfg::Successors First = G.successors(A);
    std::vector<NodeId> Work(First.begin(), First.end());
    while (!Work.empty()) {
      NodeId B = Work.back();
      Work.pop_back();
      if (Reach[A][B])
        continue;
      Reach[A][B] = true;
      for (NodeId S : G.successors(B))
        Work.push_back(S);
    }
  }
  return Reach;
}

bool mentionsFuel(const cs::Expr &E) {
  if (E.K == cs::Expr::Kind::Fuel)
    return true;
  return (E.L && mentionsFuel(*E.L)) || (E.R && mentionsFuel(*E.R));
}

std::optional<cs::Value> positiveStep(const cs::Expr &E, cs::RegId R) {
  if (E.K != cs::Expr::Kind::Add || !E.L || !E.R)
    return std::nullopt;
  const cs::Expr *Lit = nullptr;
  if (E.L->K == cs::Expr::Kind::Reg && E.L->Reg == R &&
      E.R->K == cs::Expr::Kind::Lit)
    Lit = E.R;
  else if (E.R->K == cs::Expr::Kind::Reg && E.R->Reg == R &&
           E.L->K == cs::Expr::Kind::Lit)
    Lit = E.L;
  if (!Lit || Lit->Lit < 1)
    return std::nullopt;
  return Lit->Lit;
}

std::optional<std::uint64_t> counterBound(const Cfg &G, NodeId Head,
                                          const std::vector<NodeId> &Cycle) {
  const cs::Expr &Cond = *G[Head].E;
  if (Cond.K != cs::Expr::Kind::Less || !Cond.L || !Cond.R ||
      Cond.L->K != cs::Expr::Kind::Reg || Cond.R->K != cs::Expr::Kind::Lit)
    return std::nullopt;
  cs::RegId R = Cond.L->Reg;
  cs::Value K = Cond.R->Lit;
  std::vector<bool> InCycle(G.size(), false);
  for (NodeId N : Cycle)
    InCycle[N] = true;
  cs::Value MinStep = 0;
  bool HaveStep = false;
  std::optional<cs::Value> MinEntry;
  for (NodeId N = 0; N < G.size(); ++N) {
    const CfgNode &Node = G[N];
    bool Writes = (Node.K == CfgNode::Kind::Assign ||
                   Node.K == CfgNode::Kind::Read ||
                   Node.K == CfgNode::Kind::Dequeue) &&
                  Node.Dst == R;
    if (!Writes)
      continue;
    if (Node.K != CfgNode::Kind::Assign)
      return std::nullopt;
    if (InCycle[N]) {
      std::optional<cs::Value> Step = positiveStep(*Node.E, R);
      if (!Step)
        return std::nullopt;
      MinStep = HaveStep ? std::min(MinStep, *Step) : *Step;
      HaveStep = true;
    } else {
      if (Node.E->K != cs::Expr::Kind::Lit)
        return std::nullopt;
      MinEntry = MinEntry ? std::min(*MinEntry, Node.E->Lit) : Node.E->Lit;
    }
  }
  if (!HaveStep)
    return std::nullopt;
  cs::Value Entry = MinEntry ? std::min<cs::Value>(*MinEntry, 0) : 0;
  if (Entry >= K)
    return 0;
  std::uint64_t Span = static_cast<std::uint64_t>(K - Entry);
  std::uint64_t Step = static_cast<std::uint64_t>(MinStep);
  return (Span + Step - 1) / Step;
}

std::vector<LoopBound> inferLoopBounds(const Cfg &G) {
  std::vector<std::vector<bool>> Reach = reachability(G);
  std::vector<LoopBound> Out;
  for (NodeId N = 0; N < G.size(); ++N) {
    if (G[N].K != CfgNode::Kind::Branch || !Reach[N][N])
      continue;
    auto Cycle = std::make_shared<std::vector<NodeId>>();
    for (NodeId X = 0; X < G.size(); ++X)
      if (X == N || (Reach[N][X] && Reach[X][N]))
        Cycle->push_back(X);
    LoopBound L;
    L.Head = N;
    for (NodeId X : *Cycle)
      if (G[X].K == CfgNode::Kind::Read || G[X].K == CfgNode::Kind::Trace)
        L.ContainsMarker = true;
    L.FuelGoverned = G[N].E && mentionsFuel(*G[N].E);
    if (std::optional<std::uint64_t> Trips = counterBound(G, N, *Cycle)) {
      L.HasCounterBound = true;
      L.MaxTrips = *Trips;
    }
    L.CycleNodes = std::move(Cycle);
    Out.push_back(std::move(L));
  }
  return Out;
}

void collectRegs(const cs::Expr &E, std::vector<cs::RegId> &Out) {
  if (E.K == cs::Expr::Kind::Reg)
    Out.push_back(E.Reg);
  if (E.L)
    collectRegs(*E.L, Out);
  if (E.R)
    collectRegs(*E.R, Out);
}

std::vector<LintFinding> lintFuelTermination(const Cfg &G) {
  std::vector<std::vector<bool>> Reach = reachability(G);
  std::vector<LintFinding> Out;
  for (NodeId B = 0; B < G.size(); ++B) {
    const CfgNode &N = G[B];
    if (N.K != CfgNode::Kind::Branch || mentionsFuel(*N.E) || !Reach[B][B])
      continue;
    std::vector<cs::RegId> CondRegs;
    collectRegs(*N.E, CondRegs);
    bool CanVary = false;
    for (NodeId M = 0; M < G.size(); ++M) {
      if (!Reach[B][M] || !Reach[M][B])
        continue;
      const CfgNode &W = G[M];
      bool Writes = W.K == CfgNode::Kind::Assign ||
                    W.K == CfgNode::Kind::Read ||
                    W.K == CfgNode::Kind::Dequeue;
      for (cs::RegId R : CondRegs)
        CanVary |= Writes && W.Dst == R;
    }
    if (!CanVary)
      Out.push_back({"fuel-termination", B,
                     "loop at n" + std::to_string(B) + " (" + N.label() +
                         ") has no fuel bound and its condition cannot "
                         "change inside the loop — once entered it never "
                         "exits"});
  }
  return Out;
}

} // namespace reference

/// Every field of every record, the region lists' contents and order,
/// and the sharing of one list per region; then the lint's findings,
/// order and messages.
void expectMatchesReference(const Cfg &G, const std::string &Ctx) {
  std::vector<LoopBound> New = inferLoopBounds(G);
  std::vector<LoopBound> Ref = reference::inferLoopBounds(G);
  ASSERT_EQ(New.size(), Ref.size()) << Ctx;
  for (std::size_t I = 0; I < New.size(); ++I) {
    const LoopBound &A = New[I], &B = Ref[I];
    EXPECT_EQ(A.Head, B.Head) << Ctx;
    ASSERT_TRUE(A.CycleNodes) << Ctx;
    EXPECT_EQ(*A.CycleNodes, *B.CycleNodes) << "head n" << B.Head << Ctx;
    EXPECT_EQ(A.ContainsMarker, B.ContainsMarker) << Ctx;
    EXPECT_EQ(A.FuelGoverned, B.FuelGoverned) << Ctx;
    EXPECT_EQ(A.HasCounterBound, B.HasCounterBound) << Ctx;
    EXPECT_EQ(A.MaxTrips, B.MaxTrips) << Ctx;
    EXPECT_EQ(A.describe(G), B.describe(G)) << Ctx;
    for (std::size_t J = 0; J < I; ++J)
      EXPECT_EQ(A.CycleNodes == New[J].CycleNodes,
                *B.CycleNodes == *Ref[J].CycleNodes)
          << "heads n" << New[J].Head << " and n" << A.Head << Ctx;
  }

  std::vector<LintFinding> NewLint = lintFuelTermination(G);
  std::vector<LintFinding> RefLint = reference::lintFuelTermination(G);
  ASSERT_EQ(NewLint.size(), RefLint.size()) << Ctx;
  for (std::size_t I = 0; I < NewLint.size(); ++I) {
    EXPECT_EQ(NewLint[I].Pass, RefLint[I].Pass) << Ctx;
    EXPECT_EQ(NewLint[I].Node, RefLint[I].Node) << Ctx;
    EXPECT_EQ(NewLint[I].Message, RefLint[I].Message) << Ctx;
  }
}

//===----------------------------------------------------------------------===//
// Seeded random structured programs
//===----------------------------------------------------------------------===//

/// Random programs over four registers and two buffers: nested and
/// sequential whiles (some with empty bodies), ifs, reads, dequeues,
/// markers, fuel() conditions, counters sharing r0, and code after a
/// `while (1)` that no run reaches.
class ProgramGen {
public:
  explicit ProgramGen(std::uint64_t Seed) : Rng(Seed) {}

  cs::StmtPtr program() { return block(0); }

private:
  SplitMix64 Rng;
  unsigned Budget = 40; ///< Statements left to generate.

  cs::RegId reg() { return static_cast<cs::RegId>(Rng.nextInRange(0, 3)); }
  cs::BufId buf() { return static_cast<cs::BufId>(Rng.nextInRange(0, 1)); }
  cs::Value small() { return static_cast<cs::Value>(Rng.nextInRange(0, 6)) - 2; }

  cs::ExprPtr cond() {
    switch (Rng.nextInRange(0, 6)) {
    case 0:
      return TA.fuel();
    case 1:
      return TA.lit(1);
    case 2:
      return TA.reg(reg());
    case 3:
      return TA.notE(TA.eq(TA.reg(reg()), TA.lit(small())));
    case 4:
      return TA.less(TA.lit(small()), TA.reg(reg()));
    default: // The counter shape.
      return TA.less(TA.reg(reg()), TA.lit(small() + 2));
    }
  }

  cs::ExprPtr value(cs::RegId Dst) {
    switch (Rng.nextInRange(0, 5)) {
    case 0:
    case 1:
      return TA.lit(small());
    case 2: // A step; 0 is not a positive one.
      return TA.add(TA.reg(Dst), TA.lit(small() + 2));
    case 3:
      return TA.add(TA.lit(small() + 2), TA.reg(Dst));
    case 4:
      return TA.sub(TA.reg(Dst), TA.lit(1));
    default:
      return TA.add(TA.reg(reg()), TA.lit(1));
    }
  }

  cs::StmtPtr marker() {
    auto Fn = static_cast<cs::TraceFn>(Rng.nextInRange(0, 4));
    return TA.traceE(Fn, buf());
  }

  /// `r0 = c; while (r0 < K) { ...; r0 = r0 + s; [if (..) r0 = r0 + t;] }`
  /// — every counter shares r0, so one loop's writes are another's
  /// outside writes, and a second step makes the smallest one count.
  cs::StmtPtr counter(unsigned Depth) {
    auto Step = [this] {
      return TA.setReg(0, TA.add(TA.reg(0), TA.lit(small() + 3)));
    };
    std::vector<cs::StmtPtr> Body = {Step()};
    if (Rng.nextBernoulli(1, 2))
      Body.push_back(TA.ifThen(cond(), Step()));
    if (Rng.nextBernoulli(1, 2))
      Body.insert(Body.begin(), block(Depth + 1));
    return TA.seq({TA.setReg(0, TA.lit(small())),
                   TA.whileLoop(TA.less(TA.reg(0), TA.lit(small() + 2)),
                                TA.seq(Body))});
  }

  cs::StmtPtr stmt(unsigned Depth) {
    --Budget;
    switch (Rng.nextInRange(0, Depth < 5 ? 11 : 5)) {
    case 0:
    case 1: {
      cs::RegId R = reg();
      return TA.setReg(R, value(R));
    }
    case 2:
      return TA.readE(reg(), buf(), reg());
    case 3:
      return TA.dequeue(buf(), reg());
    case 4:
      return marker();
    case 5: // An empty-body loop: a Branch that is its own successor.
      return TA.whileLoop(cond(), TA.seq({}));
    case 6:
      return counter(Depth);
    case 7:
      return TA.ifThen(cond(), block(Depth + 1),
                       Rng.nextBernoulli(1, 2) ? block(Depth + 1) : nullptr);
    case 8:
    case 9:
      return TA.whileLoop(cond(), block(Depth + 1));
    case 10: // Code after `while (1)`.
      return TA.seq({TA.whileLoop(TA.lit(1), block(Depth + 1)),
                     block(Depth + 1)});
    default:
      return TA.whileLoop(TA.fuel(), TA.seq({marker(), block(Depth + 1)}));
    }
  }

  cs::StmtPtr block(unsigned Depth) {
    std::vector<cs::StmtPtr> Body;
    for (std::uint64_t I = Rng.nextInRange(0, 3); I > 0 && Budget > 0; --I)
      Body.push_back(stmt(Depth));
    return TA.seq(Body);
  }
};

TEST(LoopClassification, RandomProgramsMatchReachabilityReference) {
  const std::uint64_t Base = fuzzSeed(20250613);
  std::size_t Loops = 0, Shared = 0, Counters = 0, Flagged = 0;
  for (std::uint64_t Round = 0; Round < 400; ++Round) {
    ProgramGen Gen(Base + Round);
    cs::StmtPtr P = Gen.program();
    Cfg G = buildCfg(P);
    expectMatchesReference(G, "\nround " + std::to_string(Round) +
                                  "; replay: RPROSA_FUZZ_SEED=" +
                                  std::to_string(Base) + "\n" +
                                  cs::printStmt(*P));
    if (HasFatalFailure())
      return;
    std::vector<LoopBound> Ls = inferLoopBounds(G);
    Loops += Ls.size();
    for (std::size_t I = 1; I < Ls.size(); ++I)
      Shared += Ls[I].CycleNodes->size() > 1 &&
                std::any_of(Ls.begin(), Ls.begin() + I,
                            [&](const LoopBound &L) {
                              return L.CycleNodes == Ls[I].CycleNodes;
                            });
    for (const LoopBound &L : Ls)
      Counters += L.HasCounterBound;
    Flagged += lintFuelTermination(G).size();
  }
  // The corpus must exercise every shape the passes distinguish.
  EXPECT_GT(Loops, 400u) << "replay: RPROSA_FUZZ_SEED=" << Base;
  EXPECT_GT(Shared, 20u) << "replay: RPROSA_FUZZ_SEED=" << Base;
  EXPECT_GT(Counters, 20u) << "replay: RPROSA_FUZZ_SEED=" << Base;
  EXPECT_GT(Flagged, 20u) << "replay: RPROSA_FUZZ_SEED=" << Base;
}

//===----------------------------------------------------------------------===//
// The benchmark's loop ladder and the nested E20 shape
//===----------------------------------------------------------------------===//

/// The benchmark's loop ladder (test_util.h), lowered.
Cfg ladderCfg(std::uint32_t Loops) {
  std::optional<cs::StmtPtr> P = cs::parseProgram(TA, loopLadderSource(Loops));
  EXPECT_TRUE(P.has_value());
  return buildCfg(*P);
}

TEST(LoopClassification, BenchmarkLadderMatchesReference) {
  for (std::uint32_t Loops : {1u, 7u, 40u}) {
    Cfg G = ladderCfg(Loops);
    expectMatchesReference(G, "\nladder of " + std::to_string(Loops));
    // The spliced counters share the scheduler loop's region: their
    // `r5 = 0` is an in-cycle literal write, so they are not
    // counter-bounded there, and the region's markers make them
    // marker-carrying.
    std::size_t Spliced = 0;
    for (const LoopBound &L : inferLoopBounds(G)) {
      if (G[L.Head].label() != "branch (r5 < 4)")
        continue;
      ++Spliced;
      EXPECT_TRUE(L.ContainsMarker && !L.HasCounterBound) << L.describe(G);
    }
    EXPECT_EQ(Spliced, Loops);
  }
}

TEST(LoopClassification, NestedCountersShareTheSchedulerRegion) {
  // while (fuel()) { selection_start(); r_i = 0; while (r_i < 10)
  // { r_i = r_i + 1; } ... idling_start(); } — E20's nested shape.
  std::vector<cs::StmtPtr> Body = {TA.traceE(cs::TraceFn::TrSelection)};
  for (cs::RegId I = 0; I < 24; ++I) {
    cs::RegId R = I % 8;
    Body.push_back(TA.setReg(R, TA.lit(0)));
    Body.push_back(TA.whileLoop(TA.less(TA.reg(R), TA.lit(10)),
                                TA.setReg(R, TA.add(TA.reg(R), TA.lit(1)))));
  }
  Body.push_back(TA.traceE(cs::TraceFn::TrIdling));
  Cfg G = buildCfg(TA.whileLoop(TA.fuel(), TA.seq(Body)));
  expectMatchesReference(G, "\nnested shape");
  std::vector<LoopBound> Ls = inferLoopBounds(G);
  ASSERT_EQ(Ls.size(), 25u);
  for (const LoopBound &L : Ls)
    EXPECT_EQ(L.CycleNodes, Ls[0].CycleNodes);
  EXPECT_EQ(Ls[0].CycleNodes->size(), G.size() - 2); // All but Entry, Exit.
}

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

TEST(LoopClassification, EmptyBodyLoopIsASelfLoop) {
  // while (r0 < 3) {} — the Branch is its own successor.
  Cfg G = buildCfg(TA.seq({TA.setReg(0, TA.lit(0)),
                           TA.whileLoop(TA.less(TA.reg(0), TA.lit(3)),
                                        TA.seq({}))}));
  std::vector<LoopBound> Ls = inferLoopBounds(G);
  ASSERT_EQ(Ls.size(), 1u);
  const NodeId Head = Ls[0].Head;
  EXPECT_EQ(G[Head].Succ, Head);
  EXPECT_EQ(*Ls[0].CycleNodes, std::vector<NodeId>{Head});
  EXPECT_FALSE(Ls[0].benign()) << Ls[0].describe(G);

  std::vector<LintFinding> Fs = lintFuelTermination(G);
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Node, Head);
  EXPECT_EQ(Fs[0].Message,
            "loop at n" + std::to_string(Head) +
                " (branch (r0 < 3)) has no fuel bound and its condition "
                "cannot change inside the loop — once entered it never "
                "exits");
  expectMatchesReference(G, "\nempty body");
}

TEST(LoopClassification, HeadsOfOneRegionShareOneList) {
  // while (fuel()) { r1 = 0; while (r1 < 3) { r1 = r1 + 1; } }
  Cfg G = buildCfg(TA.whileLoop(
      TA.fuel(),
      TA.seq({TA.setReg(1, TA.lit(0)),
              TA.whileLoop(TA.less(TA.reg(1), TA.lit(3)),
                           TA.setReg(1, TA.add(TA.reg(1), TA.lit(1))))})));
  std::vector<LoopBound> Ls = inferLoopBounds(G);
  ASSERT_EQ(Ls.size(), 2u);
  EXPECT_EQ(Ls[0].CycleNodes.get(), Ls[1].CycleNodes.get());
  EXPECT_TRUE(std::is_sorted(Ls[0].CycleNodes->begin(),
                             Ls[0].CycleNodes->end()));
  expectMatchesReference(G, "\ntwo heads");
}

TEST(LoopClassification, CycleUnreachableFromEntryIsStillReported) {
  // Entry -> Exit, plus two loops no path from Entry reaches:
  //   n2: branch (r0 < 3) -> n3 / n1;  n3: r0 = (r0 + 1) -> n2
  //   n4: branch r1 -> n4 / n1
  Cfg G;
  G.Nodes.resize(5);
  G.Entry = 0;
  G.Exit = 1;
  G.Nodes[0].Succ = 1;
  G.Nodes[1].K = CfgNode::Kind::Exit;
  CfgNode &B = G.Nodes[2];
  B.K = CfgNode::Kind::Branch;
  B.E = TA.less(TA.reg(0), TA.lit(3));
  B.Succ = 3;
  B.FalseSucc = 1;
  CfgNode &A = G.Nodes[3];
  A.K = CfgNode::Kind::Assign;
  A.Dst = 0;
  A.E = TA.add(TA.reg(0), TA.lit(1));
  A.Succ = 2;
  CfgNode &S = G.Nodes[4];
  S.K = CfgNode::Kind::Branch;
  S.E = TA.reg(1);
  S.Succ = 4;
  S.FalseSucc = 1;
  // Assembled node by node, the graph is counted from its nodes.
  EXPECT_EQ(G.numRegs(), 2u);
  EXPECT_EQ(G.numBufs(), 0u);

  CycleComponents C = cycleComponents(G);
  EXPECT_FALSE(C.onCycle(0));
  EXPECT_FALSE(C.onCycle(1));
  EXPECT_TRUE(C.onCycle(2) && C.onCycle(3) && C.onCycle(4));
  EXPECT_EQ(C.Of[2], C.Of[3]);
  EXPECT_NE(C.Of[2], C.Of[4]);

  std::vector<LoopBound> Ls = inferLoopBounds(G);
  ASSERT_EQ(Ls.size(), 2u);
  EXPECT_EQ(Ls[0].Head, 2u);
  EXPECT_EQ(*Ls[0].CycleNodes, (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(Ls[0].HasCounterBound);
  EXPECT_EQ(Ls[0].MaxTrips, 3u);
  EXPECT_EQ(Ls[1].Head, 4u);
  EXPECT_FALSE(Ls[1].benign());

  std::vector<LintFinding> Fs = lintFuelTermination(G);
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Node, 4u);
  expectMatchesReference(G, "\nunreachable cycles");
}

TEST(LoopClassification, DeepChainsStayOffTheCallStack) {
  // 200k sequential statements: a recursive DFS would need one frame
  // per node. The component pass walks them on the heap.
  std::vector<cs::StmtPtr> Body;
  for (int I = 0; I < 200000; ++I)
    Body.push_back(TA.setReg(1, TA.lit(I)));
  Body.push_back(TA.whileLoop(TA.reg(0), TA.seq({})));
  Cfg G = buildCfg(TA.seq(Body));
  CycleComponents C = cycleComponents(G);
  std::size_t OnCycle = 0;
  for (NodeId N = 0; N < G.size(); ++N)
    OnCycle += C.onCycle(N);
  EXPECT_EQ(OnCycle, 1u);
  EXPECT_EQ(C.size(), G.size());
}

} // namespace
