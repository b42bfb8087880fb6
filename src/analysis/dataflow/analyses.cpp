//===- analysis/dataflow/analyses.cpp -------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/analyses.h"

#include "analysis/lint.h"
#include "caesium/print.h"

#include <algorithm>
#include <deque>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using namespace rprosa::caesium;

InitState InitDomain::boundary(const Cfg &) const {
  State S;
  S.Reachable = true;
  const std::uint32_t Bits = NumRegs + NumBufs;
  S.Unset.assign((Bits + 63) / 64, ~std::uint64_t{0});
  if (Bits % 64 != 0)
    S.Unset.back() >>= 64 - Bits % 64;
  return S;
}

bool InitDomain::join(State &Into, const State &From) const {
  if (!From.Reachable)
    return false;
  if (!Into.Reachable) {
    Into = From;
    return true;
  }
  std::uint64_t Grew = 0;
  for (std::size_t W = 0; W < Into.Unset.size(); ++W) {
    Grew |= From.Unset[W] & ~Into.Unset[W];
    Into.Unset[W] |= From.Unset[W];
  }
  return Grew != 0;
}

void InitDomain::transfer(const Cfg &G, NodeId N, const State &In,
                          State &Out) const {
  Out.Reachable = In.Reachable;
  if (!In.Reachable)
    return;
  Out.Unset = In.Unset;
  const CfgNode &Node = G[N];
  switch (Node.K) {
  case CfgNode::Kind::Assign:
    if (Node.Dst < NumRegs)
      clear(Out, Node.Dst);
    break;
  case CfgNode::Kind::Read:
  case CfgNode::Kind::Dequeue:
    if (Node.Dst < NumRegs)
      clear(Out, Node.Dst);
    if (Node.Buf < NumBufs)
      clear(Out, NumRegs + Node.Buf);
    break;
  default:
    break;
  }
}

bool MarkerDomain::join(State &Into, const State &From) const {
  if (!From.Reachable)
    return false;
  bool Changed = !Into.Reachable || (From.MayOpen && !Into.MayOpen) ||
                 (From.MayClosed && !Into.MayClosed);
  Into.Reachable = true;
  Into.MayOpen |= From.MayOpen;
  Into.MayClosed |= From.MayClosed;
  return Changed;
}

void MarkerDomain::transfer(const Cfg &G, NodeId N, const State &In,
                            State &Out) const {
  Out = In;
  if (!In.Reachable)
    return;
  const CfgNode &Node = G[N];
  if (Node.K != CfgNode::Kind::Trace)
    return;
  if (Node.Fn == TraceFn::TrDisp)
    Out = {true, true, false};
  else if (Node.Fn == TraceFn::TrCompl)
    Out = {true, false, true};
}

namespace {

/// Shortest entry-to-target path through the nodes \p In reaches (BFS in
/// fixed successor order — deterministic), rendered as labels.
std::vector<std::string> witnessPath(const Cfg &G, NodeId Target,
                                     const std::vector<RangeState> &In) {
  std::vector<NodeId> Parent(G.size(), InvalidNode);
  std::vector<bool> Seen(G.size(), false);
  std::deque<NodeId> Queue;
  Seen[G.Entry] = true;
  Queue.push_back(G.Entry);
  while (!Queue.empty()) {
    NodeId N = Queue.front();
    Queue.pop_front();
    if (N == Target)
      break;
    for (NodeId S : G.successors(N))
      if (!Seen[S] && In[S].Reachable) {
        Seen[S] = true;
        Parent[S] = N;
        Queue.push_back(S);
      }
  }
  if (!Seen[Target])
    return {};
  std::vector<NodeId> Rev;
  for (NodeId N = Target;; N = Parent[N]) {
    Rev.push_back(N);
    if (N == G.Entry)
      break;
  }
  std::vector<std::string> Out;
  Out.reserve(Rev.size());
  for (auto It = Rev.rbegin(); It != Rev.rend(); ++It)
    Out.push_back(nodeLabel(G, *It));
  return Out;
}

/// Flags the value-range defects of one expression evaluated at \p In,
/// appending findings anchored at node \p N. Walks the tree so nested
/// operations are each checked against their own operand intervals.
void checkExprRanges(const Cfg &G, NodeId N, const Expr &E,
                     const RangeState &In, std::vector<Finding> &Out) {
  if (E.L)
    checkExprRanges(G, N, *E.L, In, Out);
  if (E.R)
    checkExprRanges(G, N, *E.R, In, Out);
  if (E.K != Expr::Kind::Add && E.K != Expr::Kind::Sub &&
      E.K != Expr::Kind::Div && E.K != Expr::Kind::Mod)
    return;

  RangeFlags FL, FR, F;
  ValueInterval L = evalInterval(*E.L, In, FL);
  ValueInterval R = evalInterval(*E.R, In, FR);
  switch (E.K) {
  case Expr::Kind::Add:
    intervalAdd(L, R, F);
    break;
  case Expr::Kind::Sub:
    intervalSub(L, R, F);
    break;
  case Expr::Kind::Div:
    intervalDiv(L, R, F);
    break;
  case Expr::Kind::Mod:
    intervalMod(L, R, F);
    break;
  default:
    break;
  }

  std::uint32_t Line = G[N].Line;
  if (F.MayDivZero) {
    std::string Which = E.K == Expr::Kind::Div ? "division" : "modulo";
    Out.push_back(
        {"value-range.div-by-zero",
         F.DefDivZero ? Severity::Error : Severity::Warning, N, Line,
         (F.DefDivZero ? Which + " by zero in " : "possible " + Which +
                                                      " by zero in ") +
             printExpr(E) + " at " + nodeRef(G, N) + ": divisor in " +
             R.str(),
         {}, std::nullopt});
  }
  if (F.MayOverflow) {
    Out.push_back(
        {"value-range.signed-overflow",
         F.DefOverflow ? Severity::Error : Severity::Warning, N, Line,
         (F.DefOverflow ? std::string("signed overflow in ")
                        : std::string("possible signed overflow in ")) +
             printExpr(E) + " at " + nodeRef(G, N) + ": operands in " +
             L.str() + " and " + R.str(),
         {}, std::nullopt});
  }
}

ValueRangeResult valueRanges(const Cfg &G, const CfgOrder &Order,
                             const AnalysisOptions &Opts) {
  RangeDomain Dom(G.numRegs());
  Solution<RangeState> Sol =
      solve(G, Dom, Order, Direction::Forward, Opts.Solve);

  ValueRangeResult R;
  R.Converged = Sol.Converged;
  R.NodeVisits = Sol.NodeVisits;
  R.In = std::move(Sol.In);

  for (NodeId N = 0; N < G.size(); ++N) {
    const RangeState &In = R.In[N];
    if (!In.Reachable)
      continue;
    const CfgNode &Node = G[N];
    std::size_t Before = R.Findings.size();
    if (Node.E)
      checkExprRanges(G, N, *Node.E, In, R.Findings);
    if (Node.K == CfgNode::Kind::Read) {
      ValueInterval Sock = Node.Reg < In.Regs.size()
                               ? In.Regs[Node.Reg]
                               : ValueInterval::top();
      Value Max = static_cast<Value>(Opts.NumSockets) - 1;
      if (!Sock.within(0, Max)) {
        bool Always = Sock.Hi < 0 || Sock.Lo > Max;
        R.Findings.push_back(
            {"value-range.socket-range",
             Always ? Severity::Error : Severity::Warning, N, Node.Line,
             "read of socket r" + std::to_string(Node.Reg) + " in " +
                 Sock.str() + " at " + nodeRef(G, N) +
                 (Always ? " is always outside [0, "
                         : " may be outside [0, ") +
                 std::to_string(Opts.NumSockets) + ")",
             {}, std::nullopt});
      }
    }
    for (std::size_t I = Before; I < R.Findings.size(); ++I)
      R.Findings[I].Witness = witnessPath(G, N, R.In);
  }
  sortFindings(R.Findings);
  return R;
}

std::vector<Finding> deadCode(const Cfg &G, const CfgOrder &Order,
                              const std::vector<RangeState> &In) {
  std::vector<Finding> Out;
  for (NodeId N = 0; N < G.size(); ++N) {
    if (N == G.Entry)
      continue;
    const CfgNode &Node = G[N];
    if (!In[N].Reachable) {
      bool GraphDead = !Order.Reachable[N];
      if (Node.K == CfgNode::Kind::Exit)
        Out.push_back({"dead-code.unreachable", Severity::Note, N,
                       Node.Line,
                       "the exit is unreachable: the program never "
                       "terminates",
                       {}, std::nullopt});
      else
        Out.push_back({"dead-code.unreachable", Severity::Warning, N,
                       Node.Line,
                       "statement " + nodeRef(G, N) +
                           (GraphDead
                                ? " is unreachable from entry"
                                : " is unreachable: no feasible path "
                                  "(value ranges)"),
                       {}, std::nullopt});
      continue;
    }
    if (Node.K != CfgNode::Kind::Branch || !Node.E ||
        Node.Succ == Node.FalseSucc)
      continue;
    RangeFlags F;
    ValueInterval C = evalInterval(*Node.E, In[N], F);
    if (!C.contains(0))
      Out.push_back({"dead-code.constant-branch", Severity::Warning, N,
                     Node.Line,
                     "branch " + nodeRef(G, N) +
                         " never takes its false edge (condition in " +
                         C.str() + " is always true)",
                     {}, std::nullopt});
    else if (C.isConstant())
      Out.push_back({"dead-code.constant-branch", Severity::Warning, N,
                     Node.Line,
                     "branch " + nodeRef(G, N) +
                         " never takes its true edge (condition is "
                         "always 0)",
                     {}, std::nullopt});
  }
  return Out;
}

std::vector<Finding> definiteInit(const Cfg &G, const CfgOrder &Order) {
  InitDomain Dom(G.numRegs(), G.numBufs());
  Solution<InitState> Sol = solve(G, Dom, Order);

  // Same sweep order as the def-before-use lint always had: node
  // ascending, that node's used registers ascending, then its buffer.
  std::vector<Finding> Out;
  std::vector<RegId> Used;
  for (NodeId U = 0; U < G.size(); ++U) {
    const InitState &In = Sol.In[U];
    if (!In.Reachable)
      continue;
    const CfgNode &N = G[U];
    Used.clear();
    if (N.E)
      collectRegs(*N.E, Used);
    if (N.K == CfgNode::Kind::Read)
      Used.push_back(N.Reg);
    std::sort(Used.begin(), Used.end());
    Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
    for (RegId R : Used)
      if (Dom.regUnset(In, R))
        Out.push_back({"definite-init.register", Severity::Warning, U,
                       N.Line,
                       "register r" + std::to_string(R) + " read at " +
                           nodeRef(G, U) +
                           " with no prior assignment on some path (the "
                           "machine zero-initialises; make it explicit)",
                       {}, std::nullopt});
    bool UsesBuf = N.K == CfgNode::Kind::Enqueue ||
                   (N.K == CfgNode::Kind::Trace && N.Fn == TraceFn::TrDisp);
    if (UsesBuf && Dom.bufUnset(In, N.Buf))
      Out.push_back({"definite-init.buffer", Severity::Warning, U, N.Line,
                     "buffer buf" + std::to_string(N.Buf) + " used at " +
                         nodeRef(G, U) +
                         " with no prior read/dequeue into it on some "
                         "path",
                     {}, std::nullopt});
  }
  return Out;
}

std::vector<Finding> markerDiscipline(const Cfg &G, const CfgOrder &Order) {
  MarkerDomain Dom;
  Solution<MarkerState> Sol = solve(G, Dom, Order);

  std::vector<Finding> Out;
  for (NodeId N = 0; N < G.size(); ++N) {
    const MarkerState &In = Sol.In[N];
    if (!In.Reachable)
      continue;
    const CfgNode &Node = G[N];
    if (Node.K != CfgNode::Kind::Trace)
      continue;
    if (Node.Fn == TraceFn::TrDisp && In.MayOpen)
      Out.push_back({"marker-discipline", Severity::Warning, N, Node.Line,
                     "dispatch_start at " + nodeRef(G, N) +
                         " may run while an earlier dispatched job is "
                         "still open (no completion_start on some "
                         "incoming path)",
                     {}, std::nullopt});
    if (Node.Fn == TraceFn::TrExec && In.MayClosed)
      Out.push_back({"marker-discipline", Severity::Warning, N, Node.Line,
                     "execution_start at " + nodeRef(G, N) +
                         " is reachable without a preceding "
                         "dispatch_start on some path",
                     {}, std::nullopt});
    if (Node.Fn == TraceFn::TrCompl && In.MayClosed)
      Out.push_back({"marker-discipline", Severity::Warning, N, Node.Line,
                     "completion_start at " + nodeRef(G, N) +
                         " is reachable without a preceding "
                         "dispatch_start on some path",
                     {}, std::nullopt});
  }
  return Out;
}

} // namespace

ValueRangeResult
rprosa::analysis::dataflow::analyzeValueRanges(const Cfg &G,
                                               const AnalysisOptions &Opts) {
  return valueRanges(G, CfgOrder::compute(G), Opts);
}

std::vector<Finding>
rprosa::analysis::dataflow::analyzeDefiniteInit(const Cfg &G) {
  return definiteInit(G, CfgOrder::compute(G));
}

std::vector<Finding>
rprosa::analysis::dataflow::analyzeDeadCode(const Cfg &G,
                                            const AnalysisOptions &Opts) {
  CfgOrder Order = CfgOrder::compute(G);
  return deadCode(G, Order, valueRanges(G, Order, Opts).In);
}

std::vector<Finding>
rprosa::analysis::dataflow::analyzeMarkerDiscipline(const Cfg &G) {
  return markerDiscipline(G, CfgOrder::compute(G));
}

std::vector<Finding>
rprosa::analysis::dataflow::runUnifiedAnalyses(const Cfg &G,
                                               const AnalysisOptions &Opts) {
  // One order for every instance; dead code reads the interval states.
  const CfgOrder Order = CfgOrder::compute(G);
  ValueRangeResult VR = valueRanges(G, Order, Opts);
  std::vector<Finding> Out = std::move(VR.Findings);
  auto Append = [&Out](std::vector<Finding> More) {
    Out.insert(Out.end(), std::make_move_iterator(More.begin()),
               std::make_move_iterator(More.end()));
  };
  Append(definiteInit(G, Order));
  Append(deadCode(G, Order, VR.In));
  Append(markerDiscipline(G, Order));
  // The structural lints are graph queries, not fixpoints; their
  // findings join the unified stream.
  for (auto Pass : {lintMarkerBalance, lintFuelTermination,
                    lintMachineRange})
    for (LintFinding &F : Pass(G))
      Out.push_back({F.Pass, Severity::Warning, F.Node, G[F.Node].Line,
                     std::move(F.Message), {}, std::nullopt});
  sortFindings(Out);
  return Out;
}
