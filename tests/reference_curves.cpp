//===- tests/reference_curves.cpp -----------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "reference_curves.h"

#include "support/rng.h"

#include <cassert>

using namespace rprosa;

Time reference::earliestCompliantArrival(const ArrivalCurve &Curve,
                                         const std::vector<Time> &Prev,
                                         Time Proposed) {
  Time Earliest = Proposed;
  // Constraint from each suffix of previous arrivals: the K arrivals
  // Prev[J..] plus the new one fit in a window of length
  // (t - Prev[J] + 1), which must admit K+1 arrivals.
  for (std::size_t J = 0; J < Prev.size(); ++J) {
    std::uint64_t Count = Prev.size() - J + 1;
    Duration NeedLen = minWindowAdmitting(Curve, Count);
    if (NeedLen == TimeInfinity)
      return TimeInfinity; // Curve admits no more arrivals, ever.
    // Need t - Prev[J] + 1 >= NeedLen, i.e. t >= Prev[J] + NeedLen - 1.
    Time Bound = satAdd(Prev[J], NeedLen - 1);
    if (Bound > Earliest)
      Earliest = Bound;
  }
  return Earliest;
}

std::optional<CurveExcess>
reference::firstCurveExcess(const std::vector<Time> &Times,
                            const ArrivalCurve &Curve, CheckResult &R) {
  for (std::size_t J = 0; J < Times.size(); ++J) {
    for (std::size_t K = J; K < Times.size(); ++K) {
      R.noteCheck();
      CurveExcess E{K - J + 1, Times[K] - Times[J] + 1, 0};
      E.Bound = Curve.eval(E.WindowLen);
      if (E.Count > E.Bound)
        return E;
    }
  }
  return std::nullopt;
}

namespace {

/// Generates compliant arrival times for one task.
class TaskArrivalBuilder {
public:
  TaskArrivalBuilder(const Task &T, SplitMix64 Rng)
      : T(T), Rng(Rng),
        // The minimum steady-state gap: how far apart two consecutive
        // arrivals must at least be once a long prefix exists. Derived
        // from the window needed for 2 arrivals.
        MinGap(minWindowAdmitting(*T.Curve, 2)) {}

  /// The earliest compliant time >= Proposed for the next arrival,
  /// given all previous arrival times (core's shared push rule).
  Time earliestCompliantAt(Time Proposed) const {
    return reference::earliestCompliantArrival(*T.Curve, Times, Proposed);
  }

  void commit(Time T_) { Times.push_back(T_); }
  const std::vector<Time> &times() const { return Times; }

  /// A randomized next proposal after the last arrival.
  Time proposeRandom(std::uint64_t GapScaleNum, std::uint64_t GapScaleDen) {
    Duration Base = MinGap == TimeInfinity ? 1 : MinGap;
    Duration MeanGap = satMul(Base, GapScaleNum) / GapScaleDen + 1;
    Duration Gap = Rng.nextInRange(0, satMul(MeanGap, 2));
    Time Last = Times.empty() ? 0 : Times.back();
    return satAdd(Last, Gap);
  }

private:
  const Task &T;
  SplitMix64 Rng;
  Duration MinGap;
  std::vector<Time> Times;
};

} // namespace

ArrivalSequence reference::generateWorkload(
    const TaskSet &Tasks, const std::vector<SocketId> &TaskSocket,
    const WorkloadSpec &Spec) {
  assert(TaskSocket.size() == Tasks.size() && "one socket per task");
  ArrivalSequence Arr(Spec.NumSockets);
  SplitMix64 Root(Spec.Seed);

  for (const Task &T : Tasks.tasks()) {
    assert(TaskSocket[T.Id] < Spec.NumSockets && "socket out of range");
    TaskArrivalBuilder B(T, Root.fork());
    std::uint64_t Limit = Spec.MaxArrivalsPerTask;
    while (Limit == 0 || B.times().size() < Limit) {
      Time Proposed = 0;
      switch (Spec.Style) {
      case WorkloadStyle::GreedyDense:
        // As early as the curve allows (starting from the last arrival
        // time; simultaneous arrivals happen when the curve is bursty).
        Proposed = B.times().empty() ? 0 : B.times().back();
        break;
      case WorkloadStyle::Random:
        Proposed = B.proposeRandom(1, 1);
        break;
      case WorkloadStyle::Sparse:
        Proposed = B.proposeRandom(3, 1);
        break;
      }
      Time At = B.earliestCompliantAt(Proposed);
      if (At == TimeInfinity || At >= Spec.Horizon)
        break;
      B.commit(At);
      Arr.addArrival(At, TaskSocket[T.Id], T.Id);
    }
  }
  return Arr;
}
