//===- analysis/dataflow/path_walk.cpp ------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow/path_walk.h"

#include <algorithm>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::analysis::dataflow;
using namespace rprosa::caesium;

namespace {

/// One in-flight path of the tail walk.
struct Walk {
  NodeId N = InvalidNode;
  std::vector<AbsValue> Regs;
  Duration Instr = 0;
  std::vector<NodeId> Trail;
  std::vector<std::uint32_t> Visits;
};

} // namespace

PathWalkOutcome
rprosa::analysis::dataflow::walkSegmentTails(const Cfg &G, NodeId Source,
                                             std::vector<AbsValue> InitRegs,
                                             const PathWalkParams &P,
                                             std::uint64_t &StepsLeft) {
  PathWalkOutcome O;
  Walk Init;
  Init.N = G[Source].Succ;
  Init.Regs = std::move(InitRegs);
  Init.Trail = {Source};
  Init.Visits.assign(G.size(), 0);

  std::vector<Walk> Stack;
  Stack.push_back(std::move(Init));

  auto Complete = [&](Walk &&W) {
    W.Trail.push_back(W.N);
    ++O.Paths;
    O.MinInstr = std::min(O.MinInstr, W.Instr);
    if (O.Paths == 1 || W.Instr > O.MaxInstr) {
      O.MaxInstr = W.Instr;
      O.TrailMax = std::move(W.Trail);
    }
  };

  while (!Stack.empty() && !O.Aborted) {
    Walk W = std::move(Stack.back());
    Stack.pop_back();

    if (StepsLeft == 0) {
      O.Aborted = true;
      O.AbortWhy = "exploration budget (MaxPathSteps) exhausted";
      break;
    }
    --StepsLeft;

    const CfgNode &Node = G[W.N];

    // A marker node or Exit delimits the segment.
    if (Node.K == CfgNode::Kind::Read || Node.K == CfgNode::Kind::Trace ||
        Node.K == CfgNode::Kind::Exit) {
      Complete(std::move(W));
      continue;
    }

    if (++W.Visits[W.N] > P.MaxVisitsPerNode) {
      O.Aborted = true;
      O.AbortWhy = P.VisitCapDiagnostic
                       ? P.VisitCapDiagnostic(W.N)
                       : "visit cap exceeded at " + nodeLabel(G, W.N);
      break;
    }

    W.Trail.push_back(W.N);
    switch (Node.K) {
    case CfgNode::Kind::Entry:
      W.N = Node.Succ;
      Stack.push_back(std::move(W));
      break;
    case CfgNode::Kind::Assign:
      W.Instr = satAdd(W.Instr, P.Instr.Assign);
      if (Node.Dst < W.Regs.size())
        W.Regs[Node.Dst] = evalAbstract(*Node.E, W.Regs, P.RegBound);
      W.N = Node.Succ;
      Stack.push_back(std::move(W));
      break;
    case CfgNode::Kind::Branch: {
      W.Instr = satAdd(W.Instr, P.Instr.Branch);
      AbsBool T = truth(evalAbstract(*Node.E, W.Regs, P.RegBound));
      if (T == AbsBool::Maybe) {
        Walk Other = W;
        Other.N = Node.FalseSucc;
        Stack.push_back(std::move(Other));
        W.N = Node.Succ;
        Stack.push_back(std::move(W));
      } else {
        W.N = T == AbsBool::True ? Node.Succ : Node.FalseSucc;
        Stack.push_back(std::move(W));
      }
      break;
    }
    case CfgNode::Kind::Enqueue:
      W.Instr = satAdd(W.Instr, P.Instr.Enqueue);
      W.N = Node.Succ;
      Stack.push_back(std::move(W));
      break;
    case CfgNode::Kind::Dequeue: {
      // Hit or miss: the result register forks the walk.
      W.Instr = satAdd(W.Instr, P.Instr.Dequeue);
      Walk Miss = W;
      if (Node.Dst < Miss.Regs.size())
        Miss.Regs[Node.Dst] = AbsValue::known(0, P.RegBound);
      Miss.N = Node.Succ;
      Stack.push_back(std::move(Miss));
      if (Node.Dst < W.Regs.size())
        W.Regs[Node.Dst] = AbsValue::known(1, P.RegBound);
      W.N = Node.Succ;
      Stack.push_back(std::move(W));
      break;
    }
    case CfgNode::Kind::Free:
      W.Instr = satAdd(W.Instr, P.Instr.Free);
      W.N = Node.Succ;
      Stack.push_back(std::move(W));
      break;
    case CfgNode::Kind::Read:
    case CfgNode::Kind::Trace:
    case CfgNode::Kind::Exit:
      break; // Handled above.
    }
  }
  return O;
}
