//===- rossl/scheduler.h - The Rössl scheduling loop (Fig. 2) -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed-priority, non-preemptive, interrupt-free scheduler of §2.1,
/// structured exactly like Fig. 2:
///
///   int fds_run(struct fd_scheduler *fds) {
///     while (1) {
///       check_sockets_until_empty(fds);   // polling phase
///       selection_start();
///       struct job *j = npfp_dequeue(&fds->sched);
///       if (!j)      { idling_start(); }  // idling phase
///       else         { dispatch_start(j);
///                      npfp_dispatch(&fds->sched, j);
///                      free(j); }          // execution phase
///     }}
///
/// The only departures from the C original are (a) the run is bounded by
/// a horizon (Thm. 5.1 reasons about a finite prefix anyway) and (b) the
/// passage of time is simulated: each basic action advances the virtual
/// clock by a cost-model sample. Marker functions are recorded exactly
/// where the paper places them.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ROSSL_SCHEDULER_H
#define RPROSA_ROSSL_SCHEDULER_H

#include "rossl/client.h"
#include "rossl/markers.h"

#include "core/pending_queue.h"
#include "core/policy.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/environment.h"
#include "trace/stream.h"
#include "trace/trace.h"

namespace rprosa {

/// Stop conditions for one run.
struct RunLimits {
  /// The loop exits at the first iteration boundary at or past this
  /// instant (the t_hrzn of Thm. 5.1 is the trace's EndTime, which may
  /// exceed Horizon by less than one iteration).
  Time Horizon = 10 * TickMs;
  /// Hard cap on recorded markers (0 = unlimited); a safety valve for
  /// misconfigured experiments.
  std::size_t MaxMarkers = 0;
};

/// The key under which FdScheduler queues a job of task \p T read at
/// \p ReadAt (the policy's selection rule in npfp_dequeue): the smallest
/// key is dispatched first, read order among equal keys. NPFP keys by
/// priority, highest first; NP-EDF by the absolute deadline
/// ReadAt + D (a task without a deadline keys by its read time); NP-FIFO
/// by a constant, so read order alone decides.
std::uint64_t pendingKey(SchedPolicy P, const Task &T, Time ReadAt);

/// One instance of the Rössl scheduler, bound to its environment and
/// cost model.
class FdScheduler {
public:
  FdScheduler(const ClientConfig &Client, Environment &Env, CostModel &Costs);

  /// Runs the Fig. 2 loop until the limits are hit and returns the
  /// timed trace of marker functions (batch mode: a VectorSink under
  /// the hood).
  TimedTrace run(const RunLimits &Limits);

  /// Streaming mode: pushes every marker into \p Sink as it is emitted
  /// — nothing is materialized, so memory stays flat regardless of the
  /// horizon. Returns the run's end time (the t_hrzn the sink also saw
  /// via onEnd).
  Time run(const RunLimits &Limits, TraceSink &Sink);

private:
  /// The Fig. 2 loop, emitting through \p Recorder.
  void runLoop(const RunLimits &Limits, MarkerRecorder &Recorder);
  /// The polling phase: rounds of reads over all sockets until one
  /// round has only failed reads (check_sockets_until_empty).
  void checkSocketsUntilEmpty();

  /// One read system call on \p Sock, emitting M_ReadS / M_ReadE and
  /// enqueueing a read job. Returns true on success.
  bool readOnce(SocketId Sock);

  const ClientConfig &Client;
  Environment &Env;
  CostModel &Costs;
  VirtualClock Clock;
  /// The active run's recorder (set for the duration of runLoop).
  MarkerRecorder *Rec = nullptr;
  PendingQueue<Job> Pending;
  /// The unique-id counter of the read step (σ_trace.idx in Fig. 6).
  JobId NextJobId = 1;
};

} // namespace rprosa

#endif // RPROSA_ROSSL_SCHEDULER_H
