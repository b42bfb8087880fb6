//===- sim/workload.cpp ---------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/workload.h"

#include "support/rng.h"

#include <cassert>

using namespace rprosa;

namespace {

/// Randomized proposals for one task's next arrival.
class GapSampler {
public:
  GapSampler(const Task &T, SplitMix64 Rng)
      : Rng(Rng),
        // The minimum steady-state gap: how far apart two consecutive
        // arrivals must at least be once a long prefix exists. Derived
        // from the window needed for 2 arrivals.
        MinGap(minWindowAdmitting(*T.Curve, 2)) {}

  /// A randomized next proposal after the last arrival \p Last.
  Time propose(Time Last, std::uint64_t GapScaleNum,
               std::uint64_t GapScaleDen) {
    Duration Base = MinGap == TimeInfinity ? 1 : MinGap;
    Duration MeanGap = satMul(Base, GapScaleNum) / GapScaleDen + 1;
    Duration Gap = Rng.nextInRange(0, satMul(MeanGap, 2));
    return satAdd(Last, Gap);
  }

private:
  SplitMix64 Rng;
  Duration MinGap;
};

} // namespace

ArrivalSequence rprosa::generateWorkload(
    const TaskSet &Tasks, const std::vector<SocketId> &TaskSocket,
    const WorkloadSpec &Spec) {
  assert(TaskSocket.size() == Tasks.size() && "one socket per task");
  ArrivalSequence Arr(Spec.NumSockets);
  SplitMix64 Root(Spec.Seed);

  for (const Task &T : Tasks.tasks()) {
    assert(TaskSocket[T.Id] < Spec.NumSockets && "socket out of range");
    GapSampler Gaps(T, Root.fork());
    // Core's shared push rule: every instant it answers complies.
    ArrivalRegulator Reg(*T.Curve);
    std::uint64_t Limit = Spec.MaxArrivalsPerTask;
    while (Limit == 0 || Reg.count() < Limit) {
      Time Proposed = 0;
      switch (Spec.Style) {
      case WorkloadStyle::GreedyDense:
        // As early as the curve allows (starting from the last arrival
        // time; simultaneous arrivals happen when the curve is bursty).
        Proposed = Reg.last();
        break;
      case WorkloadStyle::Random:
        Proposed = Gaps.propose(Reg.last(), 1, 1);
        break;
      case WorkloadStyle::Sparse:
        Proposed = Gaps.propose(Reg.last(), 3, 1);
        break;
      }
      Time At = Reg.earliest(Proposed);
      if (At == TimeInfinity || At >= Spec.Horizon)
        break;
      Reg.append(At);
      Arr.addArrival(At, TaskSocket[T.Id], T.Id);
    }
  }
  return Arr;
}

ArrivalSequence rprosa::generateWorkload(const TaskSet &Tasks,
                                         const WorkloadSpec &Spec) {
  std::vector<SocketId> TaskSocket(Tasks.size());
  for (std::size_t I = 0; I < TaskSocket.size(); ++I)
    TaskSocket[I] = static_cast<SocketId>(I % Spec.NumSockets);
  return generateWorkload(Tasks, TaskSocket, Spec);
}
