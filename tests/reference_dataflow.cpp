//===- tests/reference_dataflow.cpp ---------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "reference_dataflow.h"

#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/interval.h"
#include "analysis/dataflow/zone.h"

#include <algorithm>
#include <functional>
#include <numeric>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using namespace rprosa::caesium;

namespace {

/// The successors of \p N as Cfg::successors returned them: a fresh
/// vector per call.
std::vector<NodeId> successorVector(const Cfg &G, NodeId N) {
  const Cfg::Successors S = G.successors(N);
  return {S.begin(), S.end()};
}

} // namespace

reference::ReferenceOrder reference::computeOrder(const Cfg &G) {
  const std::size_t N = G.size();
  ReferenceOrder O;
  O.RpoIndex.assign(N, 0);
  O.Preds.assign(N, {});
  O.LoopHead.assign(N, false);
  O.Reachable.assign(N, false);

  for (NodeId From = 0; From < N; ++From)
    for (NodeId To : successorVector(G, From))
      O.Preds[To].push_back(From);
  for (std::vector<NodeId> &P : O.Preds)
    std::sort(P.begin(), P.end());

  enum : std::uint8_t { White, OnStack, Done };
  std::vector<std::uint8_t> Color(N, White);
  std::vector<NodeId> Post;
  Post.reserve(N);

  struct Frame {
    NodeId Node;
    std::vector<NodeId> Succs;
    std::size_t Next = 0;
  };
  std::vector<Frame> Stack;
  Stack.push_back({G.Entry, successorVector(G, G.Entry)});
  Color[G.Entry] = OnStack;
  O.Reachable[G.Entry] = true;

  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.Next < F.Succs.size()) {
      NodeId S = F.Succs[F.Next++];
      if (Color[S] == White) {
        Color[S] = OnStack;
        O.Reachable[S] = true;
        Stack.push_back({S, successorVector(G, S)});
      } else if (Color[S] == OnStack) {
        O.LoopHead[S] = true;
      }
    } else {
      Color[F.Node] = Done;
      Post.push_back(F.Node);
      Stack.pop_back();
    }
  }

  O.Rpo.assign(Post.rbegin(), Post.rend());
  for (NodeId I = 0; I < N; ++I)
    if (!O.Reachable[I])
      O.Rpo.push_back(I);
  for (std::uint32_t I = 0; I < O.Rpo.size(); ++I)
    O.RpoIndex[O.Rpo[I]] = I;
  return O;
}

template <class Domain>
Solution<typename Domain::State>
reference::solve(const Cfg &G, const Domain &Dom, const ReferenceOrder &Order,
                 Direction Dir, SolveOptions Opts) {
  using State = typename Domain::State;
  const std::size_t N = G.size();

  Solution<State> Sol;
  Sol.In.assign(N, Dom.bottom(G));
  Sol.Out.assign(N, Dom.bottom(G));

  const bool Fwd = Dir == Direction::Forward;
  const NodeId BoundaryNode = Fwd ? G.Entry : G.Exit;

  std::vector<unsigned> HeadChanges(N, 0);
  std::vector<char> Visited(N, 0);

  if (Order.Rpo.empty()) {
    Sol.Converged = true;
    return Sol;
  }
  const std::uint32_t Last =
      static_cast<std::uint32_t>(Order.Rpo.size()) - 1;
  auto SweepPos = [&](NodeId Node) {
    return Fwd ? Order.RpoIndex[Node] : Last - Order.RpoIndex[Node];
  };

  std::vector<std::uint32_t> Work(Order.Rpo.size());
  std::iota(Work.begin(), Work.end(), 0u);
  std::vector<char> Queued(Order.Rpo.size(), 1);
  auto Requeue = [&](NodeId Node) {
    std::uint32_t P = SweepPos(Node);
    if (Queued[P])
      return;
    Queued[P] = 1;
    Work.push_back(P);
    std::push_heap(Work.begin(), Work.end(), std::greater<>());
  };
  const std::uint64_t Budget =
      static_cast<std::uint64_t>(Opts.MaxRounds) * Order.Rpo.size();

  while (!Work.empty()) {
    if (Sol.NodeVisits >= Budget)
      return Sol;
    std::pop_heap(Work.begin(), Work.end(), std::greater<>());
    const std::uint32_t Pos = Work.back();
    Work.pop_back();
    Queued[Pos] = 0;
    NodeId Node = Order.Rpo[Fwd ? Pos : Last - Pos];

    bool Widening =
        Order.LoopHead[Node] && HeadChanges[Node] >= Opts.WidenAfter;

    State NewIn = Dom.bottom(G);
    State BackIn = Dom.bottom(G);
    if (Node == BoundaryNode)
      Dom.join(NewIn, Dom.boundary(G));
    auto Flow = [&](NodeId Pred, bool Back) {
      State &Into = Widening && Back ? BackIn : NewIn;
      if constexpr (detail::HasTransferEdge<Domain, State>) {
        State Edge = Dom.bottom(G);
        if (Fwd)
          Dom.transferEdge(G, Pred, Node, Sol.Out[Pred], Edge);
        else
          Dom.transferEdge(G, Node, Pred, Sol.Out[Pred], Edge);
        Dom.join(Into, Edge);
      } else {
        Dom.join(Into, Sol.Out[Pred]);
      }
    };
    if (Fwd) {
      for (NodeId P : Order.Preds[Node])
        Flow(P, Order.RpoIndex[P] >= Order.RpoIndex[Node]);
    } else {
      for (NodeId S : successorVector(G, Node))
        Flow(S, Order.RpoIndex[S] <= Order.RpoIndex[Node]);
    }

    bool InChanged = Dom.join(Sol.In[Node], NewIn);
    if constexpr (detail::HasWiden<Domain, State>) {
      if (Widening)
        InChanged |= Dom.widen(Sol.In[Node], BackIn);
    } else {
      InChanged |= Dom.join(Sol.In[Node], BackIn);
    }
    if (InChanged && Order.LoopHead[Node])
      ++HeadChanges[Node];

    if (InChanged || !Visited[Node]) {
      Visited[Node] = 1;
      State Out = Dom.bottom(G);
      Dom.transfer(G, Node, Sol.In[Node], Out);
      Sol.Out[Node] = std::move(Out);
      ++Sol.NodeVisits;
      if (Fwd) {
        for (NodeId S : successorVector(G, Node))
          Requeue(S);
      } else {
        for (NodeId P : Order.Preds[Node])
          Requeue(P);
      }
    }
  }
  Sol.Converged = true;
  return Sol;
}

bool reference::LiveDomain::join(State &Into, const State &S) const {
  bool Changed = false;
  for (std::size_t I = 0; I < Into.size(); ++I)
    if (S[I] && !Into[I]) {
      Into[I] = true;
      Changed = true;
    }
  return Changed;
}

void reference::LiveDomain::transfer(const Cfg &G, NodeId N, const State &In,
                                     State &Out) const {
  Out = In;
  const CfgNode &Node = G[N];
  switch (Node.K) {
  case CfgNode::Kind::Assign:
  case CfgNode::Kind::Read:
  case CfgNode::Kind::Dequeue:
    if (Node.Dst < Out.size())
      Out[Node.Dst] = false;
    break;
  default:
    break;
  }
  if (Node.E) {
    std::vector<RegId> Used;
    collectRegs(*Node.E, Used);
    for (RegId R : Used)
      if (R < Out.size())
        Out[R] = true;
  }
  if (Node.K == CfgNode::Kind::Read && Node.Reg < Out.size())
    Out[Node.Reg] = true;
}

namespace rprosa::reference {

template Solution<RangeState> solve(const Cfg &, const RangeDomain &,
                                    const ReferenceOrder &, Direction,
                                    SolveOptions);
template Solution<ZoneState> solve(const Cfg &, const ZoneDomain &,
                                   const ReferenceOrder &, Direction,
                                   SolveOptions);
template Solution<InitState> solve(const Cfg &, const InitDomain &,
                                   const ReferenceOrder &, Direction,
                                   SolveOptions);
template Solution<MarkerState> solve(const Cfg &, const MarkerDomain &,
                                     const ReferenceOrder &, Direction,
                                     SolveOptions);
template Solution<std::vector<bool>> solve(const Cfg &, const LiveDomain &,
                                           const ReferenceOrder &, Direction,
                                           SolveOptions);

} // namespace rprosa::reference
