//===- trace/serialize.cpp ------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/serialize.h"

using namespace rprosa;

static void appendJobFields(std::string &Out, const Job &J) {
  Out += ' ';
  Out += std::to_string(J.Id);
  Out += ' ';
  Out += std::to_string(J.Msg);
  Out += ' ';
  Out += std::to_string(J.Task);
  Out += ' ';
  Out += std::to_string(J.ReadAt);
}

void rprosa::appendMarkerLine(std::string &Out, Time Ts,
                              const MarkerEvent &E) {
  Out += std::to_string(Ts);
  Out += ' ';
  Out += markerWord(E.Kind);
  switch (E.Kind) {
  case MarkerKind::ReadE:
    Out += ' ';
    Out += std::to_string(E.Socket);
    if (E.J) {
      Out += " ok";
      appendJobFields(Out, *E.J);
    } else {
      Out += " fail";
    }
    break;
  case MarkerKind::Dispatch:
  case MarkerKind::Execution:
  case MarkerKind::Completion:
    if (E.J) {
      appendJobFields(Out, *E.J);
      Out += ' ';
      Out += std::to_string(E.J->Socket);
    }
    break;
  case MarkerKind::ReadS:
  case MarkerKind::Selection:
  case MarkerKind::Idling:
    break;
  }
  Out += '\n';
}

std::string rprosa::serializeTimedTrace(const TimedTrace &TT) {
  std::string Out = "refinedprosa-trace v1\n";
  for (std::size_t I = 0; I < TT.size(); ++I)
    appendMarkerLine(Out, TT.Ts[I], TT.Tr[I]);
  Out += "end " + std::to_string(TT.EndTime) + "\n";
  return Out;
}
