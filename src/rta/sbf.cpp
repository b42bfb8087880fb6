//===- rta/sbf.cpp --------------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/sbf.h"

#include "support/check.h"

#include <algorithm>

using namespace rprosa;

RosslSupply::RosslSupply(std::shared_ptr<const FlatReleaseSet> Releases,
                         const OverheadBounds &B, Time Cap,
                         bool CarryInPerTask)
    : Releases(std::move(Releases)), B(B), Cap(Cap),
      CarryInPerTask(CarryInPerTask) {
  RPROSA_CHECK(this->Releases != nullptr,
               "RosslSupply requires a release set");
}

RosslSupply::~RosslSupply() {
  if (!Telemetry)
    return;
  std::lock_guard<std::mutex> L(MemoM);
  Telemetry->add(Counts);
}

std::uint64_t RosslSupply::jobBound(Duration Delta) const {
  std::uint64_t Carry = CarryInPerTask ? 1 : 0;
  std::uint64_t N = 0;
  for (std::size_t I = 0; I < Releases->size(); ++I)
    N += Releases->evalRelease(I, Delta) + Carry;
  return N;
}

Duration RosslSupply::trb(Duration Delta) const {
  return satMul(jobBound(Delta), B.RB);
}

Duration RosslSupply::nrb(Duration Delta) const {
  return satMul(jobBound(Delta), B.perJobNonReadOverhead());
}

Duration RosslSupply::blackoutBound(Duration Delta) const {
  // trb(Δ) + nrb(Δ), with the job count they share counted once.
  std::uint64_t N = jobBound(Delta);
  return satAdd(satMul(N, B.RB), satMul(N, B.perJobNonReadOverhead()));
}

auto RosslSupply::memoAbove(Duration Work) const
    -> std::vector<MemoEntry>::iterator {
  return std::upper_bound(
      Memo.begin(), Memo.end(), Work,
      [](Duration W, const MemoEntry &E) { return W < E.Work; });
}

void RosslSupply::remember(Duration Work, Time T) const {
  if (Memo.size() >= MemoCapacity)
    return;
  auto It = memoAbove(Work);
  // Another thread sharing the supply may have stored Work meanwhile.
  if (It != Memo.begin() && It[-1].Work == Work)
    return;
  Memo.insert(It, MemoEntry{Work, T});
}

Time RosslSupply::timeToSupply(Duration Work) const {
  // SBF(0) = 0, so zero work needs zero time (the fixed point below
  // would overshoot because BlackoutBound(0) > 0 due to the carry-in).
  if (Work == 0)
    return 0;
  Time Seed = 0;
  {
    std::lock_guard<std::mutex> L(MemoM);
    auto It = memoAbove(Work);
    if (It != Memo.begin()) {
      const MemoEntry &Lower = It[-1]; // Largest memoized W' <= Work.
      if (Lower.Work == Work) {
        ++Counts.SupplyMemoHits;
        return Lower.T;
      }
      if (WarmSeeds) {
        // The inverse is monotone in Work, so t(W') is a sound lower
        // seed for t(W) — and if no t below the cap exists for the
        // smaller demand, none exists for ours either.
        if (Lower.T == TimeInfinity) {
          ++Counts.SupplyMemoHits;
          remember(Work, TimeInfinity);
          return TimeInfinity;
        }
        Seed = Lower.T;
      }
    }
  }
  // Least t with SBF(t) >= Work, i.e. least t with
  // t - BlackoutBound(t) >= Work: the request-bound fixed point
  // t <- Work + BlackoutBound(t).
  auto Step = [&](Time T) { return satAdd(Work, blackoutBound(T)); };
  std::uint64_t Iters = 0;
  std::optional<Time> T = leastFixedPointSeeded(Step, Work, Seed, Cap,
                                                &Iters);
  Time Out = T ? *T : TimeInfinity;
  std::lock_guard<std::mutex> L(MemoM);
  ++Counts.SupplyMemoMisses;
  Counts.SupplyIterations += Iters;
  remember(Work, Out);
  return Out;
}

Duration RosslSupply::supplyBound(Duration Delta) const {
  // SBF(Delta) = max{W : timeToSupply(W) <= Delta}, found by binary
  // search (SBF is monotone, and W <= Delta always). The midpoint
  // rounds up without forming Hi - Lo + 1, which wraps to 0 when
  // Delta is TimeInfinity.
  Duration Lo = 0, Hi = Delta;
  while (Lo < Hi) {
    Duration Gap = Hi - Lo;
    Duration Mid = Lo + Gap / 2 + Gap % 2;
    if (timeToSupply(Mid) <= Delta)
      Lo = Mid;
    else
      Hi = Mid - 1;
  }
  return Lo;
}
