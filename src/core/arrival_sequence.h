//===- core/arrival_sequence.h - Arrival sequences (dynamics, §4.1) -------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An arrival sequence models one run's workload: it maps each time
/// instant and socket to the messages that arrive there (§2.3:
/// arr : sock → T → list Job). The analysis assumes the sequence
/// respects each task's arrival curve (Eq. 2); respectsCurves() checks
/// exactly that property on a concrete finite sequence.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_ARRIVAL_SEQUENCE_H
#define RPROSA_CORE_ARRIVAL_SEQUENCE_H

#include "core/ids.h"
#include "core/message.h"
#include "core/task.h"
#include "core/time.h"
#include "support/check.h"

#include <optional>
#include <vector>

namespace rprosa {

/// One arrival: message \p Msg becomes available on socket \p Socket at
/// instant \p At (i.e., a read issued at any time > At can return it).
struct Arrival {
  Time At = 0;
  SocketId Socket = 0;
  Message Msg;
};

/// The earliest instant >= \p Proposed at which one more arrival of a
/// task with arrival curve \p Curve may be appended after the ascending
/// times in \p Prev without violating Eq. 2 on any window anchored at a
/// previous arrival; TimeInfinity when the curve admits no further
/// arrival at all. The workload generator (sim/workload) and the SAG
/// counterexample realizer (sag/backtrack) both push proposed instants
/// through this function, so every sequence they emit passes
/// respectsCurves by construction.
Time earliestCompliantArrival(const ArrivalCurve &Curve,
                              const std::vector<Time> &Prev, Time Proposed);

/// A window of Eq. 2's pairwise scan that holds more times than the
/// curve admits: Count times within WindowLen ticks, against Bound.
struct CurveExcess {
  std::uint64_t Count = 0;
  Duration WindowLen = 0;
  std::uint64_t Bound = 0;
};

/// Eq. 2 over one task's ascending \p Times: for every J ≤ K, in order,
/// the K − J + 1 times T_J..T_K fit a half-open window of length
/// T_K − T_J + 1, so \p Curve must admit that many there. Notes one
/// check in \p R per pair compared and stops at the first excess, which
/// it returns. respectsCurves and rta/compliance's checkReleaseCurve
/// both scan through it.
std::optional<CurveExcess> firstCurveExcess(const std::vector<Time> &Times,
                                            const ArrivalCurve &Curve,
                                            CheckResult &R);

/// A finite arrival sequence for one run.
class ArrivalSequence {
public:
  explicit ArrivalSequence(std::uint32_t NumSockets = 1)
      : NumSockets(NumSockets) {}

  /// Records an arrival. MsgIds must be unique across the sequence;
  /// addArrival asserts monotonically non-decreasing insertion time per
  /// call site convenience is NOT required — the container sorts lazily.
  void addArrival(Time At, SocketId Socket, Message Msg);

  /// Convenience: creates the message inline with a fresh MsgId.
  MsgId addArrival(Time At, SocketId Socket, TaskId Task,
                   std::uint32_t PayloadLen = 16);

  /// All arrivals sorted by (time, socket, msg id).
  const std::vector<Arrival> &arrivals() const;

  /// Arrivals on one socket, sorted by time.
  std::vector<Arrival> arrivalsOn(SocketId Socket) const;

  /// The arrival record for a message id, if present.
  std::optional<Arrival> findMsg(MsgId Id) const;

  /// Number of arrivals of \p Task in the half-open window [From, To).
  std::uint64_t countInWindow(TaskId Task, Time From, Time To) const;

  std::size_t size() const { return Sorted ? Items.size() : Items.size(); }
  std::uint32_t numSockets() const { return NumSockets; }

  /// The latest arrival instant (0 when empty).
  Time lastArrivalTime() const;

  /// Checks Eq. 2: for every task and every window anchored at an
  /// arrival, the number of arrivals within the window is bounded by the
  /// task's curve. (Checking windows anchored at arrivals is sufficient:
  /// the count in an arbitrary window is dominated by the count in the
  /// window anchored at its first contained arrival.)
  CheckResult respectsCurves(const TaskSet &Tasks) const;

  /// Checks that message ids are globally unique.
  CheckResult uniqueMsgIds() const;

private:
  void ensureSorted() const;

  std::uint32_t NumSockets;
  mutable std::vector<Arrival> Items;
  mutable bool Sorted = true;
  MsgId NextMsgId = 1;
};

} // namespace rprosa

#endif // RPROSA_CORE_ARRIVAL_SEQUENCE_H
