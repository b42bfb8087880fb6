//===- analysis/lint.cpp --------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/lint.h"

#include "analysis/dataflow/analyses.h"

#include <algorithm>
#include <deque>
#include <functional>

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

namespace {

/// True for the nodes that write register Dst.
bool writesReg(const CfgNode &N) {
  switch (N.K) {
  case CfgNode::Kind::Assign:
  case CfgNode::Kind::Read:
  case CfgNode::Kind::Dequeue:
    return true;
  default:
    return false;
  }
}

bool fillsBuf(const CfgNode &N, BufId B) {
  return (N.K == CfgNode::Kind::Read || N.K == CfgNode::Kind::Dequeue) &&
         N.Buf == B;
}

/// BFS from \p Start. Returns true if a node satisfying \p Target is
/// reachable; nodes satisfying \p Avoid are checked as targets but not
/// expanded (paths cannot pass through them).
bool searchFrom(const Cfg &G, const Cfg::Successors &Start,
                const std::function<bool(NodeId)> &Avoid,
                const std::function<bool(NodeId)> &Target) {
  std::vector<bool> Seen(G.size(), false);
  std::deque<NodeId> Queue;
  for (NodeId S : Start)
    if (!Seen[S]) {
      Seen[S] = true;
      Queue.push_back(S);
    }
  while (!Queue.empty()) {
    NodeId N = Queue.front();
    Queue.pop_front();
    if (Target(N))
      return true;
    if (Avoid(N))
      continue;
    for (NodeId S : G.successors(N))
      if (!Seen[S]) {
        Seen[S] = true;
        Queue.push_back(S);
      }
  }
  return false;
}

/// An engine-backed analysis's findings as findings of lint \p Pass.
std::vector<LintFinding> asLint(const char *Pass,
                                std::vector<dataflow::Finding> Fs) {
  std::vector<LintFinding> Out;
  for (dataflow::Finding &F : Fs)
    Out.push_back({Pass, F.Node, std::move(F.Message)});
  return Out;
}

} // namespace

std::vector<LintFinding> rprosa::analysis::lintDefBeforeUse(const Cfg &G) {
  return asLint("def-before-use", dataflow::analyzeDefiniteInit(G));
}

std::vector<LintFinding>
rprosa::analysis::lintMarkerDiscipline(const Cfg &G) {
  return asLint("marker-discipline", dataflow::analyzeMarkerDiscipline(G));
}

std::vector<LintFinding> rprosa::analysis::lintMarkerBalance(const Cfg &G) {
  std::vector<LintFinding> Out;
  for (NodeId D = 0; D < G.size(); ++D) {
    const CfgNode &N = G[D];
    if (N.K != CfgNode::Kind::Trace || N.Fn != TraceFn::TrDisp)
      continue;
    const Cfg::Successors Succs = G.successors(D);

    // (a) The dispatched job must complete before the program exits or
    // dispatches again.
    bool Uncompleted = searchFrom(
        G, Succs,
        [&](NodeId A) {
          return G[A].K == CfgNode::Kind::Trace &&
                 G[A].Fn == TraceFn::TrCompl;
        },
        [&](NodeId T) {
          return T == G.Exit || (G[T].K == CfgNode::Kind::Trace &&
                                 G[T].Fn == TraceFn::TrDisp);
        });
    if (Uncompleted)
      Out.push_back({"marker-balance", D,
                     "a path from the dispatch at " + nodeRef(G, D) +
                         " reaches the exit or the next dispatch without "
                         "completion_start()"});

    // (b) The dispatch buffer must be freed before it is refilled or
    // the program exits (otherwise the message leaks).
    bool Unfreed = searchFrom(
        G, Succs,
        [&](NodeId A) {
          return G[A].K == CfgNode::Kind::Free && G[A].Buf == N.Buf;
        },
        [&](NodeId T) { return T == G.Exit || fillsBuf(G[T], N.Buf); });
    if (Unfreed)
      Out.push_back({"marker-balance", D,
                     "a path from the dispatch at " + nodeRef(G, D) +
                         " reaches the exit or a refill of buf" +
                         std::to_string(N.Buf) + " without free(buf" +
                         std::to_string(N.Buf) + ")"});
  }
  return Out;
}

std::vector<LintFinding>
rprosa::analysis::lintFuelTermination(const Cfg &G) {
  std::vector<LintFinding> Out;
  // A node is "in the loop" of branch B if it lies on some cycle
  // through B: it is in B's strongly connected region. One component
  // pass plus the registers each cyclic region writes answer the
  // question for every branch.
  const CycleComponents Comps = cycleComponents(G);
  std::vector<std::vector<RegId>> Written(Comps.size());
  for (NodeId M = 0; M < G.size(); ++M)
    if (Comps.onCycle(M) && writesReg(G[M]))
      Written[Comps.Of[M]].push_back(G[M].Dst);
  for (std::vector<RegId> &W : Written) {
    std::sort(W.begin(), W.end());
    W.erase(std::unique(W.begin(), W.end()), W.end());
  }
  for (NodeId B = 0; B < G.size(); ++B) {
    const CfgNode &N = G[B];
    if (N.K != CfgNode::Kind::Branch || mentionsFuel(*N.E))
      continue;
    if (!Comps.onCycle(B))
      continue; // Not a loop.
    std::vector<RegId> CondRegs;
    collectRegs(*N.E, CondRegs);
    const std::vector<RegId> &W = Written[Comps.Of[B]];
    bool CanVary = std::any_of(CondRegs.begin(), CondRegs.end(),
                               [&W](RegId R) {
                                 return std::binary_search(W.begin(),
                                                           W.end(), R);
                               });
    if (!CanVary)
      Out.push_back({"fuel-termination", B,
                     "loop at " + nodeRef(G, B) +
                         " has no fuel bound and its condition cannot "
                         "change inside the loop — once entered it never "
                         "exits"});
  }
  return Out;
}

std::vector<LintFinding> rprosa::analysis::lintMachineRange(const Cfg &G) {
  // The CaesiumMachine defaults (interp.h): 8 registers, 4 buffers.
  constexpr std::uint32_t MachineRegs = 8, MachineBufs = 4;
  std::vector<LintFinding> Out;
  if (G.numRegs() > MachineRegs)
    Out.push_back({"machine-range", G.Entry,
                   "program uses " + std::to_string(G.numRegs()) +
                       " registers; the default CaesiumMachine allocates " +
                       std::to_string(MachineRegs)});
  if (G.numBufs() > MachineBufs)
    Out.push_back({"machine-range", G.Entry,
                   "program uses " + std::to_string(G.numBufs()) +
                       " buffers; the default CaesiumMachine allocates " +
                       std::to_string(MachineBufs)});
  return Out;
}

std::vector<LintFinding>
rprosa::analysis::lintDeadBranches(const Cfg &G, const Verdict &Cov) {
  std::vector<LintFinding> Out;
  if (Cov.EdgeCover.size() != G.size() || Cov.NodeVisited.size() != G.size())
    return Out; // Coverage from a different CFG; nothing to report.
  for (NodeId N = 0; N < G.size(); ++N) {
    if (!Cov.NodeVisited[N]) {
      Out.push_back({"dead-branch", N,
                     "statement " + nodeRef(G, N) +
                         " is unreachable in the exhaustive exploration"});
      continue;
    }
    if (G[N].K != CfgNode::Kind::Branch)
      continue;
    if (!(Cov.EdgeCover[N] & 1))
      Out.push_back({"dead-branch", N,
                     "branch " + nodeRef(G, N) + " never takes its true "
                                                 "edge (condition is "
                                                 "always false)"});
    if (!(Cov.EdgeCover[N] & 2))
      Out.push_back({"dead-branch", N,
                     "branch " + nodeRef(G, N) + " never takes its false "
                                                 "edge (condition is "
                                                 "always true)"});
  }
  return Out;
}

std::vector<LintFinding> rprosa::analysis::runLints(const Cfg &G,
                                                    const Verdict *Cov) {
  std::vector<LintFinding> Out = lintDefBeforeUse(G);
  auto Append = [&Out](std::vector<LintFinding> More) {
    Out.insert(Out.end(), std::make_move_iterator(More.begin()),
               std::make_move_iterator(More.end()));
  };
  Append(lintMarkerBalance(G));
  Append(lintMarkerDiscipline(G));
  Append(lintFuelTermination(G));
  Append(lintMachineRange(G));
  if (Cov)
    Append(lintDeadBranches(G, *Cov));
  return Out;
}

std::string rprosa::analysis::describe(const std::vector<LintFinding> &Fs) {
  std::string Out;
  for (const LintFinding &F : Fs)
    Out += "[" + F.Pass + "] " + F.Message + "\n";
  return Out;
}
