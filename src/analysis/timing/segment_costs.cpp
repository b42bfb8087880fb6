//===- analysis/timing/segment_costs.cpp ----------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/timing/segment_costs.h"

#include "analysis/abstract_state.h"
#include "analysis/dataflow/path_walk.h"
#include "support/table.h"
#include "trace/basic_actions.h"

#include <algorithm>
#include <cassert>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

std::string rprosa::analysis::toString(SegmentClass C) {
  switch (C) {
  case SegmentClass::FailedRead:
    return "failed-read";
  case SegmentClass::SuccessfulRead:
    return "successful-read";
  case SegmentClass::Selection:
    return "selection";
  case SegmentClass::Dispatch:
    return "dispatch";
  case SegmentClass::Execution:
    return "execution";
  case SegmentClass::Completion:
    return "completion";
  case SegmentClass::Idling:
    return "idling";
  }
  return "?";
}

namespace {

std::size_t idx(SegmentClass C) { return static_cast<std::size_t>(C); }

/// The interval of the *marker action* part of a segment: every sampled
/// duration is floored at 1 tick and (outside the fault-injecting cost
/// model) capped by the WCET parameter. A successful read is the failed
/// poll plus the completion extra, together at most max(WcetFR, WcetSR).
CostInterval markerBase(SegmentClass C, const StaticCostParams &P) {
  auto Cap = [](Duration W) { return std::max<Duration>(W, 1); };
  switch (C) {
  case SegmentClass::FailedRead:
    return {1, Cap(P.Wcets.FailedRead)};
  case SegmentClass::SuccessfulRead:
    return {1, std::max(Cap(P.Wcets.FailedRead), Cap(P.Wcets.SuccessfulRead))};
  case SegmentClass::Selection:
    return {1, Cap(P.Wcets.Selection)};
  case SegmentClass::Dispatch:
    return {1, Cap(P.Wcets.Dispatch)};
  case SegmentClass::Execution:
    return {1, Cap(P.MaxCallbackWcet)};
  case SegmentClass::Completion:
    return {1, Cap(P.Wcets.Completion)};
  case SegmentClass::Idling:
    return {1, Cap(P.Wcets.Idling)};
  }
  return {1, 1};
}

SegmentClass classOfTrace(TraceFn Fn) {
  switch (Fn) {
  case TraceFn::TrSelection:
    return SegmentClass::Selection;
  case TraceFn::TrDisp:
    return SegmentClass::Dispatch;
  case TraceFn::TrExec:
    return SegmentClass::Execution;
  case TraceFn::TrCompl:
    return SegmentClass::Completion;
  case TraceFn::TrIdling:
    return SegmentClass::Idling;
  }
  return SegmentClass::Idling;
}

std::string nodeLabel(const Cfg &G, NodeId N) {
  return "n" + std::to_string(N) + ": " + G[N].label();
}

std::vector<std::string> renderTrail(const Cfg &G,
                                     const std::vector<NodeId> &Trail) {
  std::vector<std::string> Out;
  Out.reserve(Trail.size());
  for (NodeId N : Trail)
    Out.push_back(nodeLabel(G, N));
  return Out;
}

/// Names the cycle responsible for a visit-cap abort, preferring a
/// non-benign classification (the actionable diagnostic).
std::string loopDiagnostic(const Cfg &G, const std::vector<LoopBound> &Loops,
                           NodeId At) {
  const LoopBound *Blamed = nullptr;
  for (const LoopBound &L : Loops) {
    if (!std::binary_search(L.CycleNodes->begin(), L.CycleNodes->end(), At))
      continue;
    if (!L.benign())
      return "unbounded cycle: " + L.describe(G);
    if (!Blamed)
      Blamed = &L;
  }
  if (Blamed)
    return "visit cap exceeded inside " + Blamed->describe(G);
  return "visit cap exceeded at " + nodeLabel(G, At);
}

} // namespace

TimingResult rprosa::analysis::analyzeTiming(const Cfg &G,
                                             const StaticCostParams &P,
                                             std::uint32_t NumSockets) {
  TimingResult R;
  R.NumSockets = NumSockets;
  R.Loops = inferLoopBounds(G);
  for (std::size_t C = 0; C < NumSegmentClasses; ++C)
    R.Segments[C].Class = static_cast<SegmentClass>(C);

  // Graph reachability from Entry: only reachable markers source
  // segments.
  std::vector<bool> Reachable(G.size(), false);
  std::vector<NodeId> Work = {G.Entry};
  Reachable[G.Entry] = true;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    for (NodeId S : G.successors(N))
      if (!Reachable[S]) {
        Reachable[S] = true;
        Work.push_back(S);
      }
  }

  // Per-class accumulation across sources.
  struct ClassAcc {
    bool Any = false;
    bool Aborted = false;
    std::string Diag;
    Duration MaxInstr = 0;
    Duration MinInstr = TimeInfinity;
    std::vector<NodeId> TrailMax;
    std::vector<NodeId> TrailMin;
  };
  std::array<ClassAcc, NumSegmentClasses> Acc;

  std::uint64_t StepsLeft = P.MaxPathSteps;
  std::uint32_t NumRegs = G.numRegs();

  const caesium::Value RegBound = registerBound(NumSockets);
  dataflow::PathWalkParams WP;
  WP.RegBound = RegBound;
  WP.MaxVisitsPerNode = P.MaxVisitsPerNode;
  WP.Instr = P.Instr;
  WP.VisitCapDiagnostic = [&](NodeId At) {
    return loopDiagnostic(G, R.Loops, At);
  };

  auto Explore = [&](NodeId Source, SegmentClass C,
                     std::vector<AbsValue> InitRegs) {
    dataflow::PathWalkOutcome O = dataflow::walkSegmentTails(
        G, Source, std::move(InitRegs), WP, StepsLeft);
    ClassAcc &A = Acc[idx(C)];
    A.Any = true;
    R.PathsExplored += O.Paths;
    if (O.Aborted && !A.Aborted) {
      A.Aborted = true;
      A.Diag = "from " + nodeLabel(G, Source) + ": " + O.AbortWhy;
    }
    if (O.Paths == 0)
      return;
    if (A.TrailMax.empty() || O.MaxInstr > A.MaxInstr) {
      A.MaxInstr = O.MaxInstr;
      A.TrailMax = std::move(O.TrailMax);
    }
    if (O.MinInstr < A.MinInstr) {
      A.MinInstr = O.MinInstr;
      A.TrailMin = std::move(O.TrailMin);
    }
  };

  for (NodeId N = 0; N < G.size(); ++N) {
    if (!Reachable[N])
      continue;
    const CfgNode &Node = G[N];
    if (Node.K == CfgNode::Kind::Read) {
      // Two flavors: the outcome register is the only non-Top fact.
      std::vector<AbsValue> Fail(NumRegs, AbsValue::top());
      if (Node.Dst < Fail.size())
        Fail[Node.Dst] = AbsValue::known(-1, RegBound);
      Explore(N, SegmentClass::FailedRead, std::move(Fail));

      std::vector<AbsValue> Success(NumRegs, AbsValue::top());
      if (Node.Dst < Success.size())
        Success[Node.Dst] = AbsValue::nonNeg();
      Explore(N, SegmentClass::SuccessfulRead, std::move(Success));
    } else if (Node.K == CfgNode::Kind::Trace) {
      Explore(N, classOfTrace(Node.Fn),
              std::vector<AbsValue>(NumRegs, AbsValue::top()));
    }
  }

  for (std::size_t C = 0; C < NumSegmentClasses; ++C) {
    SegmentBound &S = R.Segments[C];
    const ClassAcc &A = Acc[C];
    S.Reachable = A.Any;
    if (!A.Any)
      continue;
    CostInterval Base = markerBase(S.Class, P);
    S.I.Lo = satAdd(Base.Lo, A.MinInstr == TimeInfinity ? 0 : A.MinInstr);
    S.I.Hi = A.Aborted ? TimeInfinity : satAdd(Base.Hi, A.MaxInstr);
    S.InstrTailHi = A.MaxInstr;
    S.WitnessMax = renderTrail(G, A.TrailMax);
    S.WitnessMin = renderTrail(G, A.TrailMin);
    S.Diagnostic = A.Diag;
  }

  R.IterationFixed = R.iterationWcet(0);
  Duration One = R.iterationWcet(1);
  R.IterationPerSuccess =
      (One == TimeInfinity || R.IterationFixed == TimeInfinity)
          ? TimeInfinity
          : One - R.IterationFixed;
  return R;
}

bool TimingResult::allBounded() const {
  return std::all_of(Segments.begin(), Segments.end(),
                     [](const SegmentBound &S) { return S.bounded(); });
}

Duration TimingResult::iterationWcet(std::uint64_t Successes) const {
  auto Hi = [&](SegmentClass C) {
    const SegmentBound &S = seg(C);
    return S.Reachable ? S.I.Hi : 0;
  };
  // The do-while polling phase: every round before the last has at
  // least one success, so at most Successes+1 rounds of NumSockets
  // reads, of which exactly Successes succeed.
  Duration Reads = satMul(satAdd(Successes, 1), NumSockets);
  Duration Fails = Reads > Successes ? Reads - Successes : 0;
  Duration W = satAdd(satMul(Successes, Hi(SegmentClass::SuccessfulRead)),
                      satMul(Fails, Hi(SegmentClass::FailedRead)));
  W = satAdd(W, Hi(SegmentClass::Selection));
  Duration Run = satAdd(satAdd(Hi(SegmentClass::Dispatch),
                               Hi(SegmentClass::Execution)),
                        Hi(SegmentClass::Completion));
  return satAdd(W, std::max(Run, Hi(SegmentClass::Idling)));
}

BasicActionWcets
TimingResult::effectiveWcets(const BasicActionWcets &Input) const {
  auto Hi = [&](SegmentClass C, Duration Fallback) {
    const SegmentBound &S = seg(C);
    return S.Reachable ? S.I.Hi : Fallback;
  };
  BasicActionWcets W = Input;
  W.FailedRead = Hi(SegmentClass::FailedRead, Input.FailedRead);
  W.SuccessfulRead = std::max(
      Hi(SegmentClass::SuccessfulRead, Input.SuccessfulRead), W.FailedRead);
  W.Selection = Hi(SegmentClass::Selection, Input.Selection);
  W.Dispatch = Hi(SegmentClass::Dispatch, Input.Dispatch);
  W.Completion = Hi(SegmentClass::Completion, Input.Completion);
  W.Idling = Hi(SegmentClass::Idling, Input.Idling);
  return W;
}

TimingInputs TimingResult::toRtaInputs(const TaskSet &Tasks,
                                       const BasicActionWcets &Input) const {
  TimingInputs In;
  In.Wcets = effectiveWcets(Input);
  const SegmentBound &Exec = seg(SegmentClass::Execution);
  Duration Tail = Exec.Reachable ? Exec.InstrTailHi : 0;
  In.CallbackWcets.reserve(Tasks.size());
  for (const Task &T : Tasks.tasks())
    In.CallbackWcets.push_back(satAdd(T.Wcet, Tail));
  In.Source = TimingSource::StaticAnalysis;
  return In;
}

namespace {

std::string fmtDuration(Duration D) {
  return D == TimeInfinity ? "inf" : formatWithCommas(D);
}

} // namespace

std::string TimingResult::describeTable() const {
  TableWriter T({"segment", "reachable", "lo", "hi", "instr-tail"});
  for (const SegmentBound &S : Segments) {
    if (!S.Reachable) {
      T.addRow({toString(S.Class), "no", "-", "-", "-"});
      continue;
    }
    T.addRow({toString(S.Class), "yes", fmtDuration(S.I.Lo),
              fmtDuration(S.I.Hi), fmtDuration(S.InstrTailHi)});
  }
  std::string Out = T.renderAscii();
  Out += "\niteration WCET: fixed " + fmtDuration(IterationFixed) +
         ", per successful read +" + fmtDuration(IterationPerSuccess) +
         "  (" + std::to_string(NumSockets) + " sockets, " +
         formatWithCommas(PathsExplored) + " paths)\n";
  for (const SegmentBound &S : Segments) {
    if (!S.Reachable)
      continue;
    Out += "\nwitness(max) " + toString(S.Class) + ":\n";
    for (const std::string &L : S.WitnessMax)
      Out += "  " + L + "\n";
    if (!S.Diagnostic.empty())
      Out += "  ! " + S.Diagnostic + "\n";
  }
  return Out;
}

std::vector<TimingDiff> rprosa::analysis::diffTiming(const TimingResult &Ref,
                                                     const TimingResult &Got) {
  std::vector<TimingDiff> Out;
  for (std::size_t C = 0; C < NumSegmentClasses; ++C) {
    const SegmentBound &R = Ref.Segments[C];
    const SegmentBound &G = Got.Segments[C];
    Duration RefHi = R.Reachable ? R.I.Hi : 0;
    Duration GotHi = G.Reachable ? G.I.Hi : 0;
    if (GotHi > RefHi)
      Out.push_back({static_cast<SegmentClass>(C), RefHi, GotHi,
                     G.WitnessMax});
  }
  return Out;
}

std::vector<ObservedSegment>
rprosa::analysis::observedSegments(const TimedTrace &TT) {
  std::vector<ObservedSegment> Out;
  for (const BasicAction &A : segmentBasicActions(TT)) {
    SegmentClass C = SegmentClass::Idling;
    switch (A.Kind) {
    case BasicActionKind::Read:
      C = A.J ? SegmentClass::SuccessfulRead : SegmentClass::FailedRead;
      break;
    case BasicActionKind::Selection:
      C = SegmentClass::Selection;
      break;
    case BasicActionKind::Disp:
      C = SegmentClass::Dispatch;
      break;
    case BasicActionKind::Exec:
      C = SegmentClass::Execution;
      break;
    case BasicActionKind::Compl:
      C = SegmentClass::Completion;
      break;
    case BasicActionKind::Idling:
      C = SegmentClass::Idling;
      break;
    }
    Out.push_back({C, A.len(), A.FirstMarker});
  }
  return Out;
}

std::vector<IterationObs>
rprosa::analysis::observedIterations(const TimedTrace &TT) {
  const Trace &Tr = TT.Tr;
  std::vector<std::size_t> Starts;
  for (std::size_t I = 0; I < Tr.size(); ++I) {
    if (Tr[I].Kind != MarkerKind::ReadS)
      continue;
    if (I == 0 || Tr[I - 1].Kind == MarkerKind::Completion ||
        Tr[I - 1].Kind == MarkerKind::Idling)
      Starts.push_back(I);
  }
  std::vector<IterationObs> Out;
  for (std::size_t S = 0; S < Starts.size(); ++S) {
    IterationObs It;
    It.FirstMarker = Starts[S];
    std::size_t End = S + 1 < Starts.size() ? Starts[S + 1] : Tr.size();
    Time EndTs = S + 1 < Starts.size() ? TT.Ts[Starts[S + 1]] : TT.EndTime;
    It.Len = EndTs - TT.Ts[Starts[S]];
    for (std::size_t I = Starts[S]; I < End; ++I)
      if (Tr[I].isSuccessfulRead())
        ++It.Successes;
    Out.push_back(It);
  }
  return Out;
}
