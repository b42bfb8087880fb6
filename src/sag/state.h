//===- sag/state.h - Schedule-abstraction graph states --------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// System states of the schedule-abstraction graph (SAG) for the Rössl
/// socket machine (DESIGN.md §13). The exact schedulability test
/// explores every non-preemptive dispatch order the machine can exhibit
/// for a bounded-horizon job set; a *state* abstracts all runs that
/// dispatched the same set of jobs, keeping only the interval
/// [EA, LA] of instants at which the machine can re-enter the polling
/// phase after the previous job's completion overhead.
///
/// The job set is finite and derived from the task set: task τ_i's
/// q-th job arrives no earlier than the greedy-dense instant the
/// arrival curve admits (rmin, via core's ArrivalRegulator) and
/// no later than rmin + ReleaseJitter (rmax). A job is *certainly
/// released* at instants t with rmax < t and *possibly released* when
/// rmin <= t <= rmax; the queue-entry window [Qmin, Qmax] shifts the
/// release window by the machine's read-path latencies, since the
/// selection step can only see jobs the polling phase has already read.
///
/// Two states with the same dispatched-job set whose availability
/// intervals overlap are merged into their interval hull — the rule
/// that keeps the graph polynomial in practice. Merging only widens
/// intervals, so every concrete run covered before a merge is still
/// covered after it (the soundness direction the replay gate depends
/// on).
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_SAG_STATE_H
#define RPROSA_SAG_STATE_H

#include "core/policy.h"
#include "core/task.h"
#include "core/time.h"
#include "core/wcet.h"
#include "support/check.h"

#include <array>
#include <cstdint>
#include <vector>

namespace rprosa {

/// Hard cap on the number of jobs a SAG instance can track (the
/// dispatched-set bitmask is a fixed four-word array).
inline constexpr std::size_t SagMaxJobs = 256;

/// Knobs of the exact test.
struct SagConfig {
  /// Job-generation horizon: every job whose earliest arrival lies
  /// before this instant is part of the analyzed set. Exactness is
  /// relative to this bounded prefix (the finite-trace framing of
  /// Thm. 5.1).
  Time Horizon = 10 * TickUs;
  /// Per-job release jitter: a job may arrive anywhere in
  /// [rmin, rmin + ReleaseJitter]. 0 = the greedy-dense sequence only.
  Duration ReleaseJitter = 0;
  /// Caps that turn the verdict into Unknown instead of running away.
  std::size_t MaxJobs = SagMaxJobs;
  std::size_t MaxStates = 1u << 17;
  /// Explorer threads (0 = hardware default, 1 = serial).
  std::size_t Threads = 1;
};

/// One job of the bounded-horizon set.
struct SagJob {
  TaskId Task = InvalidTaskId;
  /// q: this is the (Index+1)-th job of its task.
  std::uint32_t Index = 0;
  SocketId Socket = 0;
  /// Arrival window (possibly-released between the two, inclusive).
  Time Rmin = 0;
  Time Rmax = 0;
  /// Queue-entry window: bounds on the instant the polling phase hands
  /// the job to npfp_enqueue, derived from [Rmin, Rmax] and the
  /// machine's read-path latencies.
  Time Qmin = 0;
  Time Qmax = 0;
  /// Effective execution cost under AlwaysWcet (max(C_i, 1)).
  Duration Cost = 0;
  /// Relative deadline (0 = unconstrained).
  Duration Deadline = 0;
  Priority Prio = 0;
};

/// Dispatched-job bitmask (fits SagMaxJobs).
using SagMask = std::array<std::uint64_t, SagMaxJobs / 64>;

inline bool sagMaskTest(const SagMask &M, std::uint32_t J) {
  return (M[J / 64] >> (J % 64)) & 1u;
}
inline void sagMaskSet(SagMask &M, std::uint32_t J) {
  M[J / 64] |= std::uint64_t{1} << (J % 64);
}

/// One SAG system state.
struct SagState {
  SagMask Dispatched{};
  /// Bounds on the instant the machine re-enters the polling phase
  /// after the previous dispatch's completion overhead (0 initially).
  Time EA = 0;
  Time LA = 0;
  /// Number of dispatched jobs (= popcount of Dispatched).
  std::uint32_t Depth = 0;
};

/// The static system model the exploration runs against: the job set
/// plus the machine latency constants derived from the basic-action
/// WCETs under the AlwaysWcet cost model.
class SagModel {
public:
  /// Builds the model; a failed Status (job cap, invalid task set, EDF
  /// without deadlines) leaves the model unusable and the verdict
  /// Unknown.
  static SagModel build(const TaskSet &Tasks, const BasicActionWcets &W,
                        std::uint32_t NumSockets, SchedPolicy Policy,
                        const SagConfig &Cfg);

  const TaskSet &tasks() const { return *Tasks; }
  const BasicActionWcets &wcets() const { return Wcets; }
  const std::vector<SagJob> &jobs() const { return Jobs; }
  std::uint32_t numSockets() const { return NumSockets; }
  SchedPolicy policy() const { return Policy; }
  const CheckResult &status() const { return Status; }

  /// Effective (AlwaysWcet-sampled) basic-action durations.
  Duration failedRead() const { return Fr; }
  Duration readTotal() const { return Tr; }
  Duration selection() const { return Sel; }
  Duration dispatch() const { return Disp; }
  Duration completion() const { return Compl; }
  Duration idling() const { return Idle; }

  /// Upper bound on one polling phase when at most \p Unread jobs can
  /// still be read: at most Unread success rounds plus the final
  /// all-failed round, each round at most NumSockets reads of at most
  /// readTotal() ticks.
  Duration phaseMax(std::size_t Unread) const {
    return satMul(satMul(Unread + 1, NumSockets), Tr);
  }

  /// True when job K is *certainly* preferred over job J by the
  /// selection rule whenever both are pending — the t_high pruning
  /// relation. Conservative: ambiguous orders (interval overlap,
  /// FIFO-within-priority ties) count as not-certain, which only adds
  /// explorable branches.
  bool certainlyPrefers(std::uint32_t K, std::uint32_t J) const;

private:
  SagModel() = default;

  const TaskSet *Tasks = nullptr;
  BasicActionWcets Wcets;
  std::vector<SagJob> Jobs;
  std::uint32_t NumSockets = 1;
  SchedPolicy Policy = SchedPolicy::Npfp;
  CheckResult Status;
  Duration Fr = 1, Tr = 1, Sel = 1, Disp = 1, Compl = 1, Idle = 1;
  Duration MaxLag = 0;
};

/// Widens \p Into to the interval hull of both states. Precondition:
/// same dispatched set and overlapping availability intervals.
void sagMergeInto(SagState &Into, const SagState &From);

/// True when the availability intervals overlap (merge eligibility).
inline bool sagCanMerge(const SagState &A, const SagState &B) {
  return A.EA <= B.LA && B.EA <= A.LA;
}

} // namespace rprosa

#endif // RPROSA_SAG_STATE_H
