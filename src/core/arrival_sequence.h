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
/// exactly that property on a concrete finite sequence, and
/// ArrivalRegulator builds sequences that have it, one arrival at a
/// time. Both use a curve's regulator form (core/arrival_curve.h) when
/// it has one and scan pairs of arrivals when it has not.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_CORE_ARRIVAL_SEQUENCE_H
#define RPROSA_CORE_ARRIVAL_SEQUENCE_H

#include "core/arrival_curve.h"
#include "core/ids.h"
#include "core/message.h"
#include "core/task.h"
#include "core/time.h"
#include "support/check.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace rprosa {

/// One arrival: message \p Msg becomes available on socket \p Socket at
/// instant \p At (i.e., a read issued at any time > At can return it).
struct Arrival {
  Time At = 0;
  SocketId Socket = 0;
  Message Msg;
};

/// Eq. 2 as a push rule for one task's arrivals: it records ascending
/// arrival times and answers the earliest instant at which one more may
/// arrive without violating Eq. 2 on any window anchored at an earlier
/// arrival. The workload generator (sim/workload), the SAG's job set
/// (sag/state) and its counterexample realizer (sag/backtrack) push
/// their proposed instants through it, so every sequence they emit
/// passes respectsCurves by construction.
///
/// With the curve's regulator form (CurveRegulator) valid up to
/// WindowSearchCap, each answer is O(1) from one running maximum;
/// without one, earliest() scans every earlier arrival with
/// minWindowAdmitting. Both give the same answers.
class ArrivalRegulator {
public:
  explicit ArrivalRegulator(const ArrivalCurve &Curve);

  /// The earliest instant >= \p Proposed, and never before last(), at
  /// which one more arrival complies; TimeInfinity when no window up to
  /// WindowSearchCap admits count() + 1 arrivals.
  Time earliest(Time Proposed) const;

  /// Records an arrival at \p At, which must not precede last().
  void append(Time At);

  /// The number of arrivals recorded.
  std::uint64_t count() const { return Count; }

  /// The latest arrival recorded (0 when none).
  Time last() const { return Last; }

private:
  const ArrivalCurve &Curve;
  std::optional<CurveRegulator> Form;
  std::uint64_t Count = 0;
  Time Last = 0;
  WideTime MaxU = 0;       ///< max_i (t_i − i·Period), with a form.
  std::vector<Time> Times; ///< The arrivals, without a form.
};

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
/// both check through it.
///
/// When the curve has a regulator form that covers the times' span, one
/// running maximum decides the whole set in O(n); a pass notes the
/// scan's n(n+1)/2 checks, and a failure reruns the pairwise scan, so
/// the excess returned and the checks noted never depend on the form.
std::optional<CurveExcess> firstCurveExcess(const std::vector<Time> &Times,
                                            const ArrivalCurve &Curve,
                                            CheckResult &R);

/// A finite arrival sequence for one run.
class ArrivalSequence {
public:
  explicit ArrivalSequence(std::uint32_t NumSockets = 1)
      : NumSockets(NumSockets) {}

  /// Records an arrival. Arrivals may come in any time order: the
  /// sequence sorts itself, and indexes its message ids, on the first
  /// read after a change. Message ids should be unique (uniqueMsgIds
  /// checks it).
  void addArrival(Time At, SocketId Socket, Message Msg);

  /// Convenience: creates the message inline with a fresh MsgId.
  MsgId addArrival(Time At, SocketId Socket, TaskId Task,
                   std::uint32_t PayloadLen = 16);

  /// All arrivals sorted by (time, socket, msg id).
  const std::vector<Arrival> &arrivals() const;

  /// Arrivals on one socket, sorted by time.
  std::vector<Arrival> arrivalsOn(SocketId Socket) const;

  /// The arrival record for a message id, if present; for a duplicated
  /// id, the first in arrivals() order. O(log n).
  std::optional<Arrival> findMsg(MsgId Id) const;

  /// The position in arrivals() of findMsg's record for \p Id, if any.
  std::optional<std::size_t> positionOfMsg(MsgId Id) const;

  /// Each arrival whose message id an earlier arrival in arrivals()
  /// order already carries, as (position of that first arrival, its own
  /// position), in arrivals() order. Read off findMsg's index, where
  /// equal ids are neighbours; empty, and unallocated, when every id is
  /// unique.
  std::vector<std::pair<std::size_t, std::size_t>> duplicateMsgIds() const;

  /// Number of arrivals of \p Task in the half-open window [From, To).
  std::uint64_t countInWindow(TaskId Task, Time From, Time To) const;

  std::size_t size() const { return Items.size(); }
  std::uint32_t numSockets() const { return NumSockets; }

  /// The latest arrival instant (0 when empty).
  Time lastArrivalTime() const;

  /// Checks Eq. 2: for every task and every window anchored at an
  /// arrival, the number of arrivals within the window is bounded by the
  /// task's curve. (Checking windows anchored at arrivals is sufficient:
  /// the count in an arbitrary window is dominated by the count in the
  /// window anchored at its first contained arrival.)
  CheckResult respectsCurves(const TaskSet &Tasks) const;

  /// Checks that message ids are globally unique: one check per
  /// arrival, one failure per duplicateMsgIds() entry.
  CheckResult uniqueMsgIds() const;

private:
  void ensureSorted() const;

  std::uint32_t NumSockets;
  mutable std::vector<Arrival> Items;
  /// Positions in Items ordered by message id, then position: findMsg's
  /// index, rebuilt with every sort.
  mutable std::vector<std::uint32_t> ByMsg;
  mutable bool Sorted = true;
  MsgId NextMsgId = 1;
};

} // namespace rprosa

#endif // RPROSA_CORE_ARRIVAL_SEQUENCE_H
