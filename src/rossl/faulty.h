//===- rossl/faulty.h - Deliberately buggy scheduler variants -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's motivation (§1.1) is that *implementations* refute
/// analyses: Deos's overhead accounting was wrong in C++; the ROS2
/// executor starved tasks its published RTAs declared schedulable.
/// These fault-injection variants reproduce such implementation bugs in
/// a controlled way, so the test suite can demonstrate that the trace
/// checkers — the executable counterparts of the RefinedC proofs —
/// catch each of them. A bug that no checker catches would mean the
/// reproduction's "verification" is vacuous.
///
/// Every variant shares the FdScheduler skeleton and differs in one
/// deliberate defect. These are for tests and the E15 experiment only.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ROSSL_FAULTY_H
#define RPROSA_ROSSL_FAULTY_H

#include "rossl/client.h"
#include "rossl/markers.h"
#include "rossl/scheduler.h"

#include "core/pending_queue.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/environment.h"

#include <string>

namespace rprosa {

/// The injected defect.
enum class SchedulerBug : std::uint8_t {
  /// check_sockets_until_empty does a single round instead of looping
  /// until an all-failed round — the exact class of wait-set
  /// construction bug behind the refuted ROS2 analyses.
  EarlyPollingExit,
  /// npfp_dequeue returns the LOWEST-priority pending job.
  PriorityInversion,
  /// The completion marker is never emitted (instrumentation bug).
  SkipCompletionMarker,
  /// The dispatched job is not removed from the queue, so it can be
  /// dispatched twice.
  DoubleDispatch,
  /// The last socket is never polled: its messages starve.
  IgnoreLastSocket,
  /// The idle wait overruns its WCET by 4x (a timing bug, not a
  /// functional one: only the WCET checker can see it).
  OversleepIdling,
};

std::string toString(SchedulerBug B);

/// An FdScheduler with one injected bug. Mirrors FdScheduler::run but
/// is intentionally kept separate so the production loop stays clean.
class FaultyScheduler {
public:
  FaultyScheduler(const ClientConfig &Client, Environment &Env,
                  CostModel &Costs, SchedulerBug Bug);

  TimedTrace run(const RunLimits &Limits);

private:
  bool readOnce(SocketId Sock);
  bool pollOnce(); ///< One round; returns true if any read succeeded.
  std::optional<Job> dequeue();

  const ClientConfig &Client;
  Environment &Env;
  CostModel &Costs;
  SchedulerBug Bug;
  VirtualClock Clock;
  MarkerRecorder Recorder;
  PendingQueue<Job> Pending;
  bool DoubleDispatchArmed = false;
  JobId NextJobId = 1;
};

} // namespace rprosa

#endif // RPROSA_ROSSL_FAULTY_H
