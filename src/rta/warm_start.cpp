//===- rta/warm_start.cpp -------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/warm_start.h"

#include "rta/arsa.h"

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
