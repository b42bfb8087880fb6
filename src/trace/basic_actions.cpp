//===- trace/basic_actions.cpp --------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/basic_actions.h"

#include "trace/stream.h"

using namespace rprosa;

std::string rprosa::toString(BasicActionKind K) {
  switch (K) {
  case BasicActionKind::Read:
    return "Read";
  case BasicActionKind::Selection:
    return "Selection";
  case BasicActionKind::Disp:
    return "Disp";
  case BasicActionKind::Exec:
    return "Exec";
  case BasicActionKind::Compl:
    return "Compl";
  case BasicActionKind::Idling:
    return "Idling";
  }
  return "?";
}

std::vector<BasicAction> rprosa::segmentBasicActions(const TimedTrace &TT) {
  RPROSA_CHECK(TT.Tr.size() == TT.Ts.size(),
               "timed trace must carry one timestamp per marker");
  std::vector<BasicAction> Out;
  ActionSegmenter Seg([&Out](const BasicAction &A, Time) { Out.push_back(A); });
  for (std::size_t I = 0; I < TT.Tr.size(); ++I)
    Seg.onMarker(TT.Tr[I], TT.Ts[I]);
  Seg.onEnd(TT.EndTime);
  return Out;
}
