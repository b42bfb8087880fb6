//===- rta/warm_start.cpp -------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/warm_start.h"

#include "rta/arsa.h"
#include "rta/rta_npfp.h"

using namespace rprosa;

std::optional<Time>
rprosa::leastFixedPointSeeded(const std::function<Time(Time)> &F, Time Start,
                              Time Seed, Time Cap,
                              std::uint64_t *IterationsOut) {
  Time T = std::max(Start, Seed);
  std::uint64_t Iters = 0;
  // Kleene iteration from a point ≤ the least fixed point: iterates
  // never cross it (warm_start.h), so convergence is exact. A
  // *decreasing* step keeps iterating — with a seed strictly between
  // Start and the lfp the map may first pull the iterate down toward
  // the cold trajectory before climbing; once the direction is downward
  // it stays downward (monotone F), so the iteration still terminates
  // within the cap's range.
  while (true) {
    Time Next = F(T);
    ++Iters;
    if (exceedsCap(Next, Cap)) {
      if (IterationsOut)
        *IterationsOut += Iters;
      return std::nullopt;
    }
    if (Next == T) {
      if (IterationsOut)
        *IterationsOut += Iters;
      return T;
    }
    T = Next;
  }
}

WarmStart rprosa::warmStartFrom(const RtaResult &R) {
  WarmStart W;
  W.BusyWindow.resize(R.PerTask.size(), 0);
  for (std::size_t I = 0; I < R.PerTask.size(); ++I) {
    const TaskRta &T = R.PerTask[I];
    // Only bounded tasks yield a certified lfp to seed from, and only
    // for the same task index (ids are dense).
    if (T.Bounded && T.Task == I)
      W.BusyWindow[I] = T.BusyWindow;
  }
  return W;
}
