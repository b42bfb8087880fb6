//===- tests/reference_labels.cpp -----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "reference_labels.h"

#include "caesium/print.h"
#include "support/table.h"

using namespace rprosa;
using namespace rprosa::analysis;
using namespace rprosa::caesium;

std::string reference::label(const CfgNode &N) {
  using Kind = CfgNode::Kind;
  switch (N.K) {
  case Kind::Entry:
    return "entry";
  case Kind::Exit:
    return "exit";
  case Kind::Assign:
    return "r" + std::to_string(N.Dst) + " = " + printExpr(*N.E);
  case Kind::Branch:
    return "branch " + printExpr(*N.E);
  case Kind::Read:
    return "r" + std::to_string(N.Dst) + " = read(r" +
           std::to_string(N.Reg) + ", buf" + std::to_string(N.Buf) + ")";
  case Kind::Trace:
    switch (N.Fn) {
    case TraceFn::TrSelection:
      return "selection_start()";
    case TraceFn::TrDisp:
      return "dispatch_start(buf" + std::to_string(N.Buf) + ")";
    case TraceFn::TrExec:
      return "execution_start(buf" + std::to_string(N.Buf) + ")";
    case TraceFn::TrCompl:
      return "completion_start(buf" + std::to_string(N.Buf) + ")";
    case TraceFn::TrIdling:
      return "idling_start()";
    }
    return "trace?";
  case Kind::Enqueue:
    return "npfp_enqueue(&sched, buf" + std::to_string(N.Buf) + ")";
  case Kind::Dequeue:
    return "r" + std::to_string(N.Dst) + " = npfp_dequeue(&sched, buf" +
           std::to_string(N.Buf) + ")";
  case Kind::Free:
    return "free(buf" + std::to_string(N.Buf) + ")";
  }
  return "?";
}

std::string reference::nodeLabel(NodeId Id, const CfgNode &Node) {
  return "n" + std::to_string(Id) + ": " + label(Node);
}

std::string reference::nodeRef(const Cfg &G, NodeId N) {
  return "n" + std::to_string(N) + " (" + label(G[N]) + ")";
}

std::vector<std::string>
reference::renderTrail(const Cfg &G, const std::vector<NodeId> &Trail) {
  std::vector<std::string> Out;
  Out.reserve(Trail.size());
  for (NodeId N : Trail)
    Out.push_back(nodeLabel(N, G[N]));
  return Out;
}

namespace {

std::string fmtDuration(Duration D) {
  return D == TimeInfinity ? "inf" : formatWithCommas(D);
}

} // namespace

std::string reference::describeTable(const TimingResult &R, const Cfg &G) {
  TableWriter T({"segment", "reachable", "lo", "hi", "instr-tail"});
  for (const SegmentBound &S : R.Segments) {
    if (!S.Reachable) {
      T.addRow({toString(S.Class), "no", "-", "-", "-"});
      continue;
    }
    T.addRow({toString(S.Class), "yes", fmtDuration(S.I.Lo),
              fmtDuration(S.I.Hi), fmtDuration(S.InstrTailHi)});
  }
  std::string Out = T.renderAscii();
  Out += "\niteration WCET: fixed " + fmtDuration(R.IterationFixed) +
         ", per successful read +" + fmtDuration(R.IterationPerSuccess) +
         "  (" + std::to_string(R.NumSockets) + " sockets, " +
         formatWithCommas(R.PathsExplored) + " paths)\n";
  for (const SegmentBound &S : R.Segments) {
    if (!S.Reachable)
      continue;
    Out += "\nwitness(max) " + toString(S.Class) + ":\n";
    for (const std::string &L : renderTrail(G, S.WitnessMax))
      Out += "  " + L + "\n";
    if (!S.Diagnostic.empty())
      Out += "  ! " + S.Diagnostic + "\n";
  }
  return Out;
}
