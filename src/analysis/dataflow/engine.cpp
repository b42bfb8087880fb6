//===- analysis/dataflow/engine.cpp ---------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/engine.h"

#include <algorithm>
#include <numeric>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;

CfgOrder CfgOrder::compute(const Cfg &G) {
  const std::size_t N = G.size();
  CfgOrder O;
  O.RpoIndex.assign(N, 0);
  O.LoopHead.assign(N, false);
  O.Reachable.assign(N, false);

  // Predecessors in one flat array: count each node's in-edges, take
  // inclusive prefix sums (PredStart[To] is one past To's run), then
  // fill every run from its back with From descending, which leaves
  // PredStart[To] at the run's start and each run ascending.
  O.PredStart.assign(N + 1, 0);
  for (NodeId From = 0; From < N; ++From)
    for (NodeId To : G.successors(From))
      ++O.PredStart[To];
  std::partial_sum(O.PredStart.begin(), O.PredStart.end(),
                   O.PredStart.begin());
  O.PredIds.resize(O.PredStart[N]);
  for (NodeId From = static_cast<NodeId>(N); From-- > 0;)
    for (NodeId To : G.successors(From))
      O.PredIds[--O.PredStart[To]] = From;

  // Iterative DFS from Entry in fixed successor order; a successor
  // still on the DFS stack is a back edge and marks its target a loop
  // head. Post-order is collected into Rpo on frame exit, then
  // reversed.
  enum : std::uint8_t { White, OnStack, Done };
  std::vector<std::uint8_t> Color(N, White);
  O.Rpo.reserve(N);

  struct Frame {
    NodeId Node;
    std::uint8_t Next;
  };
  std::vector<Frame> Stack;
  Stack.push_back({G.Entry, 0});
  Color[G.Entry] = OnStack;
  O.Reachable[G.Entry] = true;

  while (!Stack.empty()) {
    Frame &F = Stack.back();
    const Cfg::Successors Succs = G.successors(F.Node);
    if (F.Next < Succs.size()) {
      NodeId S = Succs[F.Next++];
      if (Color[S] == White) {
        Color[S] = OnStack;
        O.Reachable[S] = true;
        Stack.push_back({S, 0});
      } else if (Color[S] == OnStack) {
        O.LoopHead[S] = true;
      }
    } else {
      Color[F.Node] = Done;
      O.Rpo.push_back(F.Node);
      Stack.pop_back();
    }
  }

  std::reverse(O.Rpo.begin(), O.Rpo.end());
  for (NodeId I = 0; I < N; ++I)
    if (!O.Reachable[I])
      O.Rpo.push_back(I);
  for (std::uint32_t I = 0; I < O.Rpo.size(); ++I)
    O.RpoIndex[O.Rpo[I]] = I;
  return O;
}
