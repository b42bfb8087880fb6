//===- trace/trace.cpp ----------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/trace.h"

#include <string>

using namespace rprosa;

std::string rprosa::renderTimedTrace(const TimedTrace &TT,
                                     std::size_t MaxLines) {
  std::string Out;
  std::size_t N = TT.size();
  if (MaxLines != 0 && N > MaxLines)
    N = MaxLines;
  for (std::size_t I = 0; I < N; ++I) {
    Out += "t=" + std::to_string(TT.Ts[I]) + "  " + toString(TT.Tr[I]) + "\n";
  }
  if (N < TT.size())
    Out += "... (" + std::to_string(TT.size() - N) + " more)\n";
  Out += "end=" + std::to_string(TT.EndTime) + "\n";
  return Out;
}
