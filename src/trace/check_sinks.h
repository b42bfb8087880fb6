//===- trace/check_sinks.h - Streaming trace checkers ---------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace invariants of §2-§3 as streaming consumers (DESIGN.md §9).
/// Each sink is the incremental form of one batch checker and produces a
/// CheckResult *identical* to it — same failure messages, same order,
/// same checksPerformed — on any trace whose markers arrive in order
/// with one timestamp each. The batch functions (checkTimestamps,
/// checkProtocol, checkFunctionalCorrectness, checkConsistency,
/// checkWcetRespected) are thin replay adapters over these sinks, so
/// the whole existing test corpus exercises this code.
///
/// State discipline: every sink keeps O(tasks + open jobs) live state;
/// history sets (ever-read job/message ids) use IdIntervalSet, which
/// collapses the simulator's monotone ids into O(1) fragments. Per-job
/// state sits in a JobTable (core/job_table.h), whose slots are reused
/// from job to job, and is retired when the job leaves the pending set.
/// Message lookups go through the arrival sequence's own index
/// (ArrivalSequence::findMsg, positionOfMsg).
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_CHECK_SINKS_H
#define RPROSA_TRACE_CHECK_SINKS_H

#include "trace/protocol.h"
#include "trace/stream.h"

#include "core/arrival_sequence.h"
#include "core/job_table.h"
#include "core/policy.h"
#include "core/task.h"
#include "core/wcet.h"
#include "support/check.h"
#include "support/interval_set.h"

#include <cstdint>
#include <vector>

namespace rprosa {

/// Streaming checkTimestamps: monotone timestamps, EndTime after the
/// last marker. O(1) state.
class TimestampCheckSink final : public TraceSink {
public:
  TimestampCheckSink() { R.noteCheck(); }

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override;

  /// Markers seen so far — the stream's length, for free.
  std::size_t markers() const { return Index; }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  CheckResult R;
  Time Last = 0;
  std::size_t Index = 0;
  bool Done = false;
};

/// Streaming checkProtocol (Def. 3.1): feeds the STS; stops checking at
/// the first rejection, like the batch checker. O(1) state.
class ProtocolCheckSink final : public TraceSink {
public:
  explicit ProtocolCheckSink(std::uint32_t NumSockets) : Sts(NumSockets) {}

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  const ProtocolSts &sts() const { return Sts; }
  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  ProtocolSts Sts;
  CheckResult R;
  std::size_t Index = 0;
  bool Done = false;
};

/// Streaming checkFunctionalCorrectness (Def. 3.2). Pending (policy key,
/// job id) pairs sit in a JobTable ordered by key and are retired at
/// dispatch; a job id read under two keys keeps both pairs. Ever-read
/// ids live in an IdIntervalSet.
class FunctionalCheckSink final : public TraceSink {
public:
  FunctionalCheckSink(const TaskSet &Tasks, SchedPolicy Policy)
      : Tasks(Tasks), Policy(Policy) {}

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  /// Jobs currently pending (read, not yet dispatched).
  std::size_t pendingJobs() const { return Pending.size(); }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  /// One pending job under one policy key.
  struct KeyedJob {
    std::uint64_t Key;
    JobId Id;
    bool operator==(const KeyedJob &O) const {
      return Key == O.Key && Id == O.Id;
    }
  };
  struct KeyedJobHash {
    std::uint64_t operator()(const KeyedJob &K) const {
      return K.Id ^ (K.Key * 0xC2B2AE3D27D4EB4Full);
    }
  };
  struct NoValue {};

  const TaskSet &Tasks;
  SchedPolicy Policy;
  CheckResult R;
  /// Every pair is ordered by its key: minOrder() is the first pending
  /// job under the policy.
  JobTable<KeyedJob, NoValue, KeyedJobHash> Pending;
  IdIntervalSet SeenJobIds;
  std::size_t Index = 0;
};

/// Streaming checkConsistency (Def. 2.1). A read message is looked up
/// in the arrival sequence's index; the per-socket arrival positions are
/// input-sized, and the per-trace state is the verified prefix per
/// socket plus an IdIntervalSet of read message ids. \p Arr must outlive
/// the sink and stay unchanged while it runs.
class ConsistencyCheckSink final : public TraceSink {
public:
  explicit ConsistencyCheckSink(const ArrivalSequence &Arr);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  CheckResult R;
  const ArrivalSequence &Arr;
  /// Arr.arrivals(), sorted when the sink was built.
  const std::vector<Arrival> &All;
  /// Positions in All per socket, in time order.
  std::vector<std::vector<std::uint32_t>> PerSock;
  std::vector<std::size_t> Verified;
  IdIntervalSet ReadMsgs;
  std::size_t Index = 0;
};

/// One observed deadline miss on a trace: job of \p Task, arrived at
/// \p ArrivalAt, completed at \p CompletedAt with
/// Response = CompletedAt - ArrivalAt > Deadline.
struct DeadlineMiss {
  JobId Job = InvalidJobId;
  MsgId Msg = 0;
  TaskId Task = InvalidTaskId;
  Time ArrivalAt = 0;
  Time CompletedAt = 0;
  Duration Response = 0;
  Duration Deadline = 0;
};

/// Streaming deadline observer: joins each job's completion instant
/// (M_Completion timestamp) with its message's arrival instant from the
/// arrival sequence and records every job whose response time exceeds
/// its task's relative deadline (tasks with Deadline == 0 are
/// unconstrained). This is the oracle behind the SAG replay gate
/// (sag/backtrack): an Unschedulable verdict must present a trace this
/// sink flags. Per-job state is retired at completion — O(open jobs).
/// \p Arr must outlive the sink and stay unchanged while it runs.
class DeadlineCheckSink final : public TraceSink {
public:
  DeadlineCheckSink(const TaskSet &Tasks, const ArrivalSequence &Arr);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  const std::vector<DeadlineMiss> &misses() const { return Misses; }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  struct OpenJob {
    MsgId Msg = 0;
    Time Arrived = 0;
  };

  const TaskSet &Tasks;
  const ArrivalSequence &Arr;
  CheckResult R;
  /// Open jobs: job id -> (msg id, arrival instant).
  JobTable<JobId, OpenJob> Open;
  std::vector<DeadlineMiss> Misses;
};

/// Streaming checkWcetRespected (§2.3): checks each basic action's
/// duration as soon as the action closes. O(1) state (one open action).
/// As a TraceSink it segments the markers itself; a caller that already
/// segments them (the adequacy pipeline) hands it the closed actions
/// through onAction instead.
class WcetCheckSink final : public TraceSink {
public:
  WcetCheckSink(const TaskSet &Tasks, const BasicActionWcets &W)
      : Tasks(Tasks), W(W), Seg(ActionsTo<WcetCheckSink>{this}) {}

  void onMarker(const MarkerEvent &E, Time At) override {
    Seg.onMarker(E, At);
  }
  void onEnd(Time EndTime) override { Seg.onEnd(EndTime); }

  /// Checks one closed action (\p ReadEAt is not needed).
  void onAction(const BasicAction &A, Time ReadEAt);

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  const TaskSet &Tasks;
  BasicActionWcets W;
  CheckResult R;
  ActionSegmenter<ActionsTo<WcetCheckSink>> Seg;
};

} // namespace rprosa

#endif // RPROSA_TRACE_CHECK_SINKS_H
