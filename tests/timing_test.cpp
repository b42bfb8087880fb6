//===- tests/timing_test.cpp - The static segment-cost analysis -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// analysis/timing: hand-checked bounds on the embedded Rössl program,
/// the executable soundness gate (every observed segment cost of 100+
/// seeded runs falls inside the static interval; every iteration
/// respects the derived iteration WCET), loop-bound inference, and the
/// wiring of the derived bounds into the §4 RTA.
///
//===----------------------------------------------------------------------===//

#include "analysis/timing/segment_costs.h"

#include "caesium/interp.h"
#include "caesium/rossl_program.h"
#include "rta/rta_npfp.h"
#include "sim/environment.h"
#include "sim/workload.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::testutil;

// The shared test arena (test_util.h): every hand-built AST node in
// this file allocates here.
static rprosa::caesium::AstArena &TA = rprosa::testutil::testArena();
namespace cs = rprosa::caesium;

namespace {

/// tinyWcets + unit instruction costs + a 50-tick callback budget: the
/// table every hand computation below is based on.
StaticCostParams tinyParams() {
  StaticCostParams P;
  P.Wcets = tinyWcets();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 50;
  return P;
}

TimingResult analyzeEmbedded(std::uint32_t N,
                             const StaticCostParams &P = tinyParams()) {
  return analyzeTiming(buildCfg(cs::buildRosslProgram(N)), P, N);
}

void expectInterval(const TimingResult &R, SegmentClass C, Duration Lo,
                    Duration Hi, Duration InstrTailHi) {
  const SegmentBound &B = R.seg(C);
  EXPECT_TRUE(B.Reachable) << toString(C);
  EXPECT_EQ(B.I.Lo, Lo) << toString(C);
  EXPECT_EQ(B.I.Hi, Hi) << toString(C);
  EXPECT_EQ(B.InstrTailHi, InstrTailHi) << toString(C);
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand-checked bounds on the embedded program
//===----------------------------------------------------------------------===//

TEST(SegmentCosts, HandComputedBoundsTwoSockets) {
  TimingResult R = analyzeEmbedded(2);

  // Marker part: the sampled action is floored at 1 and capped at the
  // WCET. Instruction tail (unit costs): longest non-marker suffix to
  // the next marker. E.g. a failed read's worst tail is
  //   branch !(r2==-1); r0=r0+1; branch (r0<2); branch r1; r1=0; r0=0;
  //   branch (r0<2)  ==  7 statements.
  expectInterval(R, SegmentClass::FailedRead, 4, 11, 7);
  expectInterval(R, SegmentClass::SuccessfulRead, 7, 20, 10);
  expectInterval(R, SegmentClass::Selection, 3, 5, 2);
  expectInterval(R, SegmentClass::Dispatch, 1, 2, 0);
  expectInterval(R, SegmentClass::Execution, 1, 50, 0);
  expectInterval(R, SegmentClass::Completion, 3, 12, 7);
  expectInterval(R, SegmentClass::Idling, 2, 14, 6);

  EXPECT_TRUE(R.allBounded());
  EXPECT_EQ(R.PathsExplored, 13u);

  // Witness paths are replayable trails: source first, delimiter last.
  const SegmentBound &FR = R.seg(SegmentClass::FailedRead);
  ASSERT_FALSE(FR.WitnessMax.empty());
  const std::string First =
      FR.WitnessText.substr(0, FR.WitnessText.find('\n'));
  EXPECT_EQ(First.find("  n"), 0u) << First;
  EXPECT_NE(First.find(" = read("), std::string::npos) << First;
  // 1 source + 7 instruction nodes + 1 delimiting marker, one line each.
  EXPECT_EQ(FR.WitnessMax.size(), 9u);
  EXPECT_EQ(std::count(FR.WitnessText.begin(), FR.WitnessText.end(), '\n'),
            9);
}

TEST(SegmentCosts, IterationWcetFormula) {
  // iterationWcet(k): k successes cost k SR-segments, and the do-while
  // polling runs at most (k+1) rounds of N reads — so (k+1)*N - k of
  // them failed — plus one selection and the worse of
  // dispatch+execute+complete and idle.
  EXPECT_EQ(analyzeEmbedded(1).iterationWcet(0), 80u);
  EXPECT_EQ(analyzeEmbedded(2).iterationWcet(0), 91u);
  EXPECT_EQ(analyzeEmbedded(4).iterationWcet(0), 113u);
  EXPECT_EQ(analyzeEmbedded(1).iterationWcet(2), 120u);
  EXPECT_EQ(analyzeEmbedded(2).iterationWcet(2), 153u);
  EXPECT_EQ(analyzeEmbedded(4).iterationWcet(2), 219u);
  // The display decomposition matches the defining form.
  TimingResult R = analyzeEmbedded(2);
  EXPECT_EQ(R.IterationFixed, R.iterationWcet(0));
  EXPECT_EQ(R.IterationPerSuccess,
            R.iterationWcet(1) - R.iterationWcet(0));
}

TEST(SegmentCosts, ZeroInstrCostsReproduceMarkerBounds) {
  StaticCostParams P;
  P.Wcets = tinyWcets();
  P.MaxCallbackWcet = 50;
  TimingResult R = analyzeTiming(buildCfg(cs::buildRosslProgram(2)), P, 2);
  // No instruction tail: every interval is the pure marker interval.
  expectInterval(R, SegmentClass::FailedRead, 1, 4, 0);
  expectInterval(R, SegmentClass::SuccessfulRead, 1, 10, 0);
  expectInterval(R, SegmentClass::Idling, 1, 8, 0);
  BasicActionWcets W = R.effectiveWcets(tinyWcets());
  EXPECT_EQ(W.FailedRead, tinyWcets().FailedRead);
  EXPECT_EQ(W.SuccessfulRead, tinyWcets().SuccessfulRead);
  EXPECT_EQ(W.Idling, tinyWcets().Idling);
}

//===----------------------------------------------------------------------===//
// Loop-bound inference
//===----------------------------------------------------------------------===//

TEST(LoopBounds, EmbeddedProgramLoopsAllBenign) {
  Cfg G = buildCfg(cs::buildRosslProgram(2));
  std::vector<LoopBound> Loops = inferLoopBounds(G);
  ASSERT_FALSE(Loops.empty());
  bool SawFuel = false, SawCounterOrMarker = false;
  for (const LoopBound &L : Loops) {
    EXPECT_TRUE(L.benign()) << L.describe(G);
    SawFuel |= L.FuelGoverned;
    SawCounterOrMarker |= L.HasCounterBound || L.ContainsMarker;
  }
  // The scheduler loop consults fuel(); the polling for-loop is either
  // counter-bounded or marker-carrying (it contains the read).
  EXPECT_TRUE(SawFuel);
  EXPECT_TRUE(SawCounterOrMarker);
}

TEST(LoopBounds, CounterLoopTripCount) {
  // r5 = 0; while (r5 < 8) { r5 = r5 + 1; }  =>  at most 8 trips.
  using cs::Expr;
  using cs::Stmt;
  cs::StmtPtr Prog = TA.seq({
      TA.traceE(cs::TraceFn::TrSelection, 0),
      TA.setReg(5, TA.lit(0)),
      TA.whileLoop(TA.less(TA.reg(5), TA.lit(8)),
                      TA.setReg(5, TA.add(TA.reg(5), TA.lit(1)))),
      TA.traceE(cs::TraceFn::TrIdling, 0),
  });
  Cfg G = buildCfg(Prog);
  std::vector<LoopBound> Loops = inferLoopBounds(G);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_TRUE(Loops[0].HasCounterBound) << Loops[0].describe(G);
  EXPECT_EQ(Loops[0].MaxTrips, 8u);
  EXPECT_FALSE(Loops[0].ContainsMarker);
  EXPECT_FALSE(Loops[0].FuelGoverned);

  // The walk through the loop terminates and charges 8 iterations:
  // Selection = marker [1,3] + (r5=0) + 9 branch evals + 8 increments
  // + nothing after the loop before the idling marker = tail 18.
  StaticCostParams P = tinyParams();
  TimingResult R = analyzeTiming(G, P, 1);
  EXPECT_EQ(R.seg(SegmentClass::Selection).InstrTailHi, 18u);
  EXPECT_EQ(R.seg(SegmentClass::Selection).I.Hi, 3u + 18u);
}

TEST(LoopBounds, MarkerFreeUnboundedLoopIsFlaggedNotMiscounted) {
  // r2 = read(...): on success r2 is only known non-negative, so
  // `while (r2) { r2 = r2 + 1 }` never settles — no marker, no fuel,
  // no counter shape. The analysis must refuse a finite bound and name
  // the loop instead of guessing.
  using cs::Expr;
  using cs::Stmt;
  cs::StmtPtr Prog = TA.seq({
      TA.readE(/*SockReg=*/0, /*Buf=*/0, /*Dst=*/2),
      TA.whileLoop(TA.reg(2),
                      TA.setReg(2, TA.add(TA.reg(2), TA.lit(1)))),
      TA.traceE(cs::TraceFn::TrSelection, 0),
  });
  Cfg G = buildCfg(Prog);
  std::vector<LoopBound> Loops = inferLoopBounds(G);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_FALSE(Loops[0].benign());
  EXPECT_NE(Loops[0].describe(G).find("UNBOUNDED"), std::string::npos);

  StaticCostParams P = tinyParams();
  P.MaxVisitsPerNode = 64; // Fail fast; the verdict must not change.
  TimingResult R = analyzeTiming(G, P, 1);
  EXPECT_FALSE(R.allBounded());
  const SegmentBound &SR = R.seg(SegmentClass::SuccessfulRead);
  EXPECT_EQ(SR.I.Hi, TimeInfinity);
  EXPECT_EQ(SR.Diagnostic,
            "from n5: r2 = read(r0, buf0): unbounded cycle: n3 [branch r2]: "
            "UNBOUNDED (no fuel, no marker, no counter pattern)");
  // The failed-read flavor knows r2 == -1, unrolls one trip to r2 == 0,
  // and stays bounded — precision the success flavor cannot have.
  EXPECT_NE(R.seg(SegmentClass::FailedRead).I.Hi, TimeInfinity);
}

//===----------------------------------------------------------------------===//
// The executable soundness gate
//===----------------------------------------------------------------------===//

namespace {

/// Runs the embedded machine NumRuns times across seeds/styles/kinds
/// and checks every observed segment and iteration against the static
/// result. Fuzz-style: the base seed is env-overridable and named on
/// failure.
void soundnessSweep(std::uint32_t N, std::uint64_t NumRuns) {
  const std::uint64_t Base = fuzzSeed(1);
  std::string Replay = "; replay: RPROSA_FUZZ_SEED=" + std::to_string(Base);

  ClientConfig C = makeClient(mixedTasks(), N);
  // The static callback budget must cover the deployment's max C_i
  // (mixedTasks' "log" at 80 ticks).
  StaticCostParams P = tinyParams();
  P.MaxCallbackWcet = 0;
  for (const Task &T : C.Tasks.tasks())
    P.MaxCallbackWcet = std::max(P.MaxCallbackWcet, T.Wcet);
  TimingResult R = analyzeEmbedded(N, P);
  ASSERT_TRUE(R.allBounded());

  cs::StmtPtr Program = cs::buildRosslProgram(N);

  Duration ObservedIterMax = 0;
  std::uint64_t Segments = 0;
  for (std::uint64_t Run = 0; Run < NumRuns; ++Run) {
    std::uint64_t Seed = Base + Run;
    WorkloadSpec Spec;
    Spec.NumSockets = N;
    Spec.Horizon = 3000;
    Spec.Seed = Seed;
    Spec.Style = Run % 3 == 0   ? WorkloadStyle::Sparse
                 : Run % 3 == 1 ? WorkloadStyle::Random
                                : WorkloadStyle::GreedyDense;
    ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);

    Environment Env(Arr);
    CostModelKind Kind = Run % 2 ? CostModelKind::Uniform
                                 : CostModelKind::AlwaysWcet;
    CostModel Costs(C.Wcets, Kind, Seed, InstructionCosts::unit());
    cs::CaesiumMachine M(C, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = 6000;
    TimedTrace TT = M.run(Program, Limits);

    for (const ObservedSegment &S : observedSegments(TT)) {
      ++Segments;
      const SegmentBound &B = R.seg(S.Class);
      ASSERT_TRUE(B.Reachable) << toString(S.Class) << Replay;
      ASSERT_TRUE(B.I.contains(S.Len))
          << toString(S.Class) << " observed " << S.Len << " outside ["
          << B.I.Lo << ", " << B.I.Hi << "], seed " << Seed
          << ", marker index " << S.FirstMarker << Replay;
    }
    for (const IterationObs &It : observedIterations(TT)) {
      ObservedIterMax = std::max(ObservedIterMax, It.Len);
      ASSERT_LE(It.Len, R.iterationWcet(It.Successes))
          << "iteration at marker " << It.FirstMarker << " with "
          << It.Successes << " successes, seed " << Seed << Replay;
    }
  }
  // The sweep must have exercised real work, and the whole-iteration
  // static WCET must dominate everything observed.
  EXPECT_GT(Segments, 100u * NumRuns / 50) << Replay;
  EXPECT_GT(ObservedIterMax, 0u) << Replay;
  EXPECT_LE(ObservedIterMax,
            R.iterationWcet(satMul(C.Tasks.size(), 4)))
      << Replay;
}

} // namespace

TEST(SegmentSoundness, ObservedCostsWithinStaticIntervals1Socket) {
  soundnessSweep(1, 100);
}

TEST(SegmentSoundness, ObservedCostsWithinStaticIntervals2Sockets) {
  soundnessSweep(2, 100);
}

TEST(SegmentSoundness, ObservedCostsWithinStaticIntervals4Sockets) {
  soundnessSweep(4, 100);
}

TEST(SegmentSoundness, ObservedIterationsTileTheTrace) {
  // Iterations partition the marker sequence: each starts at an
  // iteration-starting M_ReadS, and their success counts sum to the
  // successful reads on the trace.
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 2000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  Environment Env(Arr);
  CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, 1,
                  InstructionCosts::unit());
  cs::CaesiumMachine M(C, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = 5000;
  TimedTrace TT = M.run(cs::buildRosslProgram(2), Limits);

  std::vector<IterationObs> Its = observedIterations(TT);
  ASSERT_FALSE(Its.empty());
  EXPECT_EQ(Its.front().FirstMarker, 0u);
  std::uint64_t Successes = 0, LenSum = 0;
  for (std::size_t I = 0; I < Its.size(); ++I) {
    if (I + 1 < Its.size()) {
      EXPECT_LT(Its[I].FirstMarker, Its[I + 1].FirstMarker);
    }
    Successes += Its[I].Successes;
    LenSum += Its[I].Len;
  }
  std::uint64_t TraceSuccesses = 0;
  for (const MarkerEvent &E : TT.Tr)
    TraceSuccesses += E.isSuccessfulRead();
  EXPECT_EQ(Successes, TraceSuccesses);
  // Iterations tile [Ts[0], EndTime).
  EXPECT_EQ(LenSum, TT.EndTime - TT.Ts.front());
}

TEST(SegmentSoundness, TraceEndingOnBareReadSEndsWithAFailedRead) {
  // ReadS, ReadE(j1), ReadS, as a run cut mid-read leaves it. The
  // vectors are sized exactly, so reading past the last marker trips
  // ASan.
  TimedTrace TT;
  TT.Tr = {MarkerEvent::readS(), MarkerEvent::readE(0, mkJob(1, 0)),
           MarkerEvent::readS()};
  TT.Ts = {0, 10, 10};
  TT.EndTime = 14;
  std::vector<ObservedSegment> Segs = observedSegments(TT);
  ASSERT_EQ(Segs.size(), 2u);
  EXPECT_EQ(Segs[0].Class, SegmentClass::SuccessfulRead);
  EXPECT_EQ(Segs[0].Len, 10u);
  EXPECT_EQ(Segs[0].FirstMarker, 0u);
  EXPECT_EQ(Segs[1].Class, SegmentClass::FailedRead);
  EXPECT_EQ(Segs[1].Len, 4u);
  EXPECT_EQ(Segs[1].FirstMarker, 2u);
}

//===----------------------------------------------------------------------===//
// Wiring into the §4 RTA
//===----------------------------------------------------------------------===//

TEST(TimingRta, ZeroInstrDerivedInputsMatchHandAnalysis) {
  StaticCostParams P;
  P.Wcets = tinyWcets();
  P.MaxCallbackWcet = 80;
  TimingResult R = analyzeTiming(buildCfg(cs::buildRosslProgram(2)), P, 2);

  TaskSet TS = figure3Tasks();
  TimingInputs In = R.toRtaInputs(TS, tinyWcets());
  EXPECT_EQ(In.Source, TimingSource::StaticAnalysis);
  // Zero instruction costs: derived callback WCETs equal the task table.
  EXPECT_EQ(In.callbackWcet(0, 0), TS.task(0).Wcet);
  EXPECT_EQ(In.callbackWcet(1, 0), TS.task(1).Wcet);

  RtaResult Hand = analyzeNpfp(TS, tinyWcets(), 2);
  RtaResult Derived = analyzeNpfp(TS, In, 2);
  EXPECT_EQ(Hand.Source, TimingSource::HandSupplied);
  EXPECT_EQ(Derived.Source, TimingSource::StaticAnalysis);
  ASSERT_EQ(Hand.PerTask.size(), Derived.PerTask.size());
  for (std::size_t I = 0; I < Hand.PerTask.size(); ++I) {
    EXPECT_EQ(Hand.PerTask[I].Bounded, Derived.PerTask[I].Bounded);
    EXPECT_EQ(Hand.PerTask[I].ResponseBound,
              Derived.PerTask[I].ResponseBound);
  }
}

TEST(TimingRta, UnitInstrDerivedInputsAreConservative) {
  TimingResult R = analyzeEmbedded(2);
  TaskSet TS = figure3Tasks();
  TimingInputs In = R.toRtaInputs(TS, tinyWcets());

  // Every derived WCET dominates its hand-supplied counterpart, and the
  // callback WCETs absorb the Execution segment's instruction tail.
  BasicActionWcets H = tinyWcets();
  EXPECT_GE(In.Wcets.FailedRead, H.FailedRead);
  EXPECT_GE(In.Wcets.SuccessfulRead, H.SuccessfulRead);
  EXPECT_GE(In.Wcets.Selection, H.Selection);
  EXPECT_GE(In.Wcets.Dispatch, H.Dispatch);
  EXPECT_GE(In.Wcets.Completion, H.Completion);
  EXPECT_GE(In.Wcets.Idling, H.Idling);
  EXPECT_TRUE(In.Wcets.validate().passed());
  EXPECT_GE(In.callbackWcet(0, 0), TS.task(0).Wcet);

  RtaResult Hand = analyzeNpfp(TS, H, 2);
  RtaResult Derived = analyzeNpfp(TS, In, 2);
  ASSERT_EQ(Hand.PerTask.size(), Derived.PerTask.size());
  for (std::size_t I = 0; I < Hand.PerTask.size(); ++I) {
    if (!Hand.PerTask[I].Bounded || !Derived.PerTask[I].Bounded)
      continue;
    EXPECT_GE(Derived.PerTask[I].ResponseBound,
              Hand.PerTask[I].ResponseBound)
        << "derived inputs must only ever loosen the bound";
  }
}
