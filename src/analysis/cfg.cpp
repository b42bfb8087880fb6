//===- analysis/cfg.cpp ---------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/cfg.h"

#include "caesium/print.h"

#include "support/check.h"

#include <algorithm>
#include <cassert>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

namespace {

void appendPiece(std::string &Out, const char *Text) { Out += Text; }
void appendPiece(std::string &Out, std::uint32_t Id) {
  Out += std::to_string(Id);
}

/// Appends each piece to \p Out: text as it is, ids in decimal.
template <class... Pieces>
void append(std::string &Out, const Pieces &...P) {
  (appendPiece(Out, P), ...);
}

} // namespace

void CfgNode::appendLabel(std::string &Out) const {
  switch (K) {
  case Kind::Entry:
    return append(Out, "entry");
  case Kind::Exit:
    return append(Out, "exit");
  case Kind::Assign:
    append(Out, "r", Dst, " = ");
    return printExprTo(*E, Out);
  case Kind::Branch:
    append(Out, "branch ");
    return printExprTo(*E, Out);
  case Kind::Read:
    return append(Out, "r", Dst, " = read(r", Reg, ", buf", Buf, ")");
  case Kind::Trace:
    switch (Fn) {
    case TraceFn::TrSelection:
      return append(Out, "selection_start()");
    case TraceFn::TrDisp:
      return append(Out, "dispatch_start(buf", Buf, ")");
    case TraceFn::TrExec:
      return append(Out, "execution_start(buf", Buf, ")");
    case TraceFn::TrCompl:
      return append(Out, "completion_start(buf", Buf, ")");
    case TraceFn::TrIdling:
      return append(Out, "idling_start()");
    }
    return append(Out, "trace?");
  case Kind::Enqueue:
    return append(Out, "npfp_enqueue(&sched, buf", Buf, ")");
  case Kind::Dequeue:
    return append(Out, "r", Dst, " = npfp_dequeue(&sched, buf", Buf, ")");
  case Kind::Free:
    return append(Out, "free(buf", Buf, ")");
  }
  Out += '?';
}

std::string CfgNode::label() const {
  std::string Out;
  appendLabel(Out);
  return Out;
}

void rprosa::analysis::appendNodeLabel(NodeId Id, const CfgNode &Node,
                                       std::string &Out) {
  append(Out, "n", Id, ": ");
  Node.appendLabel(Out);
}

std::string rprosa::analysis::nodeRef(const Cfg &G, NodeId N) {
  std::string Out;
  append(Out, "n", N, " (");
  G[N].appendLabel(Out);
  Out += ')';
  return Out;
}

std::string rprosa::analysis::nodeLabel(const Cfg &G, NodeId N) {
  std::string Out;
  appendNodeLabel(N, G[N], Out);
  return Out;
}

void rprosa::analysis::collectRegs(const Expr &E, std::vector<RegId> &Out) {
  if (E.K == Expr::Kind::Reg)
    Out.push_back(E.Reg);
  if (E.L)
    collectRegs(*E.L, Out);
  if (E.R)
    collectRegs(*E.R, Out);
}

bool rprosa::analysis::mentionsFuel(const Expr &E) {
  if (E.K == Expr::Kind::Fuel)
    return true;
  return (E.L && mentionsFuel(*E.L)) || (E.R && mentionsFuel(*E.R));
}

namespace {

/// Backwards lowering: lower(S, Succ) returns the entry node of the
/// subgraph for S whose every terminating path continues at Succ.
class Lowerer {
public:
  Cfg &G;

  explicit Lowerer(Cfg &G) : G(G) {}

  NodeId add(CfgNode N) {
    G.Nodes.push_back(std::move(N));
    return static_cast<NodeId>(G.Nodes.size() - 1);
  }

  NodeId lower(const Stmt &S, NodeId Succ) {
    switch (S.K) {
    case Stmt::Kind::Seq: {
      NodeId Next = Succ;
      for (auto It = S.Children.rbegin(); It != S.Children.rend(); ++It)
        Next = lower(**It, Next);
      return Next;
    }
    case Stmt::Kind::SetReg: {
      CfgNode N;
      N.K = CfgNode::Kind::Assign;
      N.Line = S.Line;
      N.Dst = S.Dst;
      N.E = S.E;
      N.Succ = Succ;
      return add(std::move(N));
    }
    case Stmt::Kind::If: {
      NodeId ThenEntry = lower(*S.Children[0], Succ);
      NodeId ElseEntry =
          S.Children.size() > 1 ? lower(*S.Children[1], Succ) : Succ;
      CfgNode N;
      N.K = CfgNode::Kind::Branch;
      N.E = S.E;
      N.Line = S.Line;
      N.Succ = ThenEntry;
      N.FalseSucc = ElseEntry;
      return add(std::move(N));
    }
    case Stmt::Kind::While: {
      // Reserve the branch node first: the body loops back to it.
      CfgNode Placeholder;
      Placeholder.K = CfgNode::Kind::Branch;
      Placeholder.E = S.E;
      Placeholder.Line = S.Line;
      NodeId W = add(std::move(Placeholder));
      NodeId BodyEntry = lower(*S.Children[0], W);
      G.Nodes[W].Succ = BodyEntry;
      G.Nodes[W].FalseSucc = Succ;
      return W;
    }
    case Stmt::Kind::ReadE: {
      CfgNode N;
      N.K = CfgNode::Kind::Read;
      N.Line = S.Line;
      N.Reg = S.Reg;
      N.Buf = S.Buf;
      N.Dst = S.Dst;
      N.Succ = Succ;
      return add(std::move(N));
    }
    case Stmt::Kind::TraceE: {
      CfgNode N;
      N.K = CfgNode::Kind::Trace;
      N.Line = S.Line;
      N.Fn = S.Fn;
      N.Buf = S.Buf;
      N.Succ = Succ;
      return add(std::move(N));
    }
    case Stmt::Kind::Enqueue: {
      CfgNode N;
      N.K = CfgNode::Kind::Enqueue;
      N.Line = S.Line;
      N.Buf = S.Buf;
      N.Succ = Succ;
      return add(std::move(N));
    }
    case Stmt::Kind::Dequeue: {
      CfgNode N;
      N.K = CfgNode::Kind::Dequeue;
      N.Line = S.Line;
      N.Buf = S.Buf;
      N.Dst = S.Dst;
      N.Succ = Succ;
      return add(std::move(N));
    }
    case Stmt::Kind::FreeBuf: {
      CfgNode N;
      N.K = CfgNode::Kind::Free;
      N.Line = S.Line;
      N.Buf = S.Buf;
      N.Succ = Succ;
      return add(std::move(N));
    }
    }
    assert(false && "unknown statement kind");
    return InvalidNode;
  }
};

} // namespace

Cfg &rprosa::analysis::buildCfg(const StmtPtr &Program, Cfg &Out) {
  RPROSA_CHECK(Program, "buildCfg: null program");
  Out.Nodes.clear();
  Lowerer L(Out);
  // Children are created before the statements that wrap them, so the
  // root's dense id bounds the tree's statement count: every non-Seq
  // statement lowers to exactly one node (+ Entry/Exit). Reserving up
  // front turns the lowering into straight appends with no realloc
  // copies even for multi-MB specs.
  L.G.Nodes.reserve(static_cast<std::size_t>(Program->Id) + 3);
  NodeId Entry = L.add(CfgNode{}); // Kind::Entry by default.
  CfgNode ExitNode;
  ExitNode.K = CfgNode::Kind::Exit;
  NodeId Exit = L.add(std::move(ExitNode));
  NodeId ProgEntry = L.lower(*Program, Exit);
  L.G.Nodes[Entry].Succ = ProgEntry;
  L.G.Entry = Entry;
  L.G.Exit = Exit;
  L.G.Root = Program;
  Out.Regs = Out.Bufs = Cfg::KeptCount();
  return Out;
}

Cfg rprosa::analysis::buildCfg(const StmtPtr &Program) {
  Cfg G;
  buildCfg(Program, G);
  return G;
}

namespace {

/// 1 + the highest register id \p E reads; 0 if it reads none.
std::uint32_t regsRead(const Expr &E) {
  std::uint32_t Max = E.K == Expr::Kind::Reg ? E.Reg + 1 : 0;
  if (E.L)
    Max = std::max(Max, regsRead(*E.L));
  if (E.R)
    Max = std::max(Max, regsRead(*E.R));
  return Max;
}

/// 1 + the highest register id node \p N mentions; 0 if none.
std::uint32_t regsOf(const CfgNode &N) {
  std::uint32_t Max = N.E ? regsRead(*N.E) : 0;
  switch (N.K) {
  case CfgNode::Kind::Assign:
  case CfgNode::Kind::Dequeue:
    return std::max(Max, N.Dst + 1);
  case CfgNode::Kind::Read:
    return std::max({Max, N.Dst + 1, N.Reg + 1});
  default:
    return Max;
  }
}

/// 1 + the buffer id node \p N mentions; 0 if none.
std::uint32_t bufsOf(const CfgNode &N) {
  switch (N.K) {
  case CfgNode::Kind::Read:
  case CfgNode::Kind::Enqueue:
  case CfgNode::Kind::Dequeue:
  case CfgNode::Kind::Free:
    return N.Buf + 1;
  case CfgNode::Kind::Trace:
    return N.Fn == TraceFn::TrDisp || N.Fn == TraceFn::TrExec ||
                   N.Fn == TraceFn::TrCompl
               ? N.Buf + 1
               : 0;
  default:
    return 0;
  }
}

/// The largest \p Of(N) over \p Nodes; 0 for none.
template <class F>
std::uint32_t maxOver(const std::vector<CfgNode> &Nodes, F Of) {
  std::uint32_t Max = 0;
  for (const CfgNode &N : Nodes)
    Max = std::max(Max, Of(N));
  return Max;
}

} // namespace

std::uint32_t Cfg::numRegs() const {
  return Regs.get([this] { return maxOver(Nodes, regsOf); });
}

std::uint32_t Cfg::numBufs() const {
  return Bufs.get([this] { return maxOver(Nodes, bufsOf); });
}

CycleComponents rprosa::analysis::cycleComponents(const Cfg &G) {
  const std::size_t N = G.size();
  constexpr std::uint32_t Unvisited = static_cast<std::uint32_t>(-1);

  CycleComponents C;
  C.Of.assign(N, Unvisited);
  std::vector<std::uint32_t> Index(N, Unvisited), Low(N, 0);
  std::vector<NodeId> Open; // Tarjan's stack of unassigned nodes.
  struct Frame {
    NodeId Node;
    std::uint8_t Next;
  };
  std::vector<Frame> Dfs;
  std::uint32_t Clock = 0;
  auto Visit = [&](NodeId V) {
    Index[V] = Low[V] = Clock++;
    Open.push_back(V);
    Dfs.push_back({V, 0});
  };

  for (NodeId Root = 0; Root < N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    Visit(Root);
    while (!Dfs.empty()) {
      const NodeId V = Dfs.back().Node;
      const Cfg::Successors Succs = G.successors(V);
      if (Dfs.back().Next < Succs.size()) {
        NodeId S = Succs[Dfs.back().Next++];
        if (Index[S] == Unvisited)
          Visit(S);
        else if (C.Of[S] == Unvisited) // Still open: a back or cross edge.
          Low[V] = std::min(Low[V], Index[S]);
        continue;
      }
      Dfs.pop_back();
      if (!Dfs.empty())
        Low[Dfs.back().Node] = std::min(Low[Dfs.back().Node], Low[V]);
      if (Low[V] != Index[V])
        continue;
      // V roots a component: everything above it on the stack.
      const auto Id = static_cast<std::uint32_t>(C.Cyclic.size());
      std::size_t Members = 0;
      NodeId M;
      do {
        M = Open.back();
        Open.pop_back();
        C.Of[M] = Id;
        ++Members;
      } while (M != V);
      C.Cyclic.push_back(Members > 1 ||
                         std::find(Succs.begin(), Succs.end(), V) !=
                             Succs.end());
    }
  }
  return C;
}

std::string Cfg::dump() const {
  std::string Out;
  for (NodeId I = 0; I < Nodes.size(); ++I) {
    const CfgNode &N = Nodes[I];
    appendNodeLabel(I, N, Out);
    if (N.K == CfgNode::Kind::Branch)
      Out += " -> n" + std::to_string(N.Succ) + " / n" +
             std::to_string(N.FalseSucc);
    else if (N.Succ != InvalidNode)
      Out += " -> n" + std::to_string(N.Succ);
    Out += "\n";
  }
  return Out;
}
