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
/// state is retired when the job leaves the pending set.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_CHECK_SINKS_H
#define RPROSA_TRACE_CHECK_SINKS_H

#include "trace/protocol.h"
#include "trace/stream.h"

#include "core/arrival_sequence.h"
#include "core/policy.h"
#include "core/task.h"
#include "core/wcet.h"
#include "support/check.h"
#include "support/interval_set.h"

#include <map>
#include <set>

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

/// Streaming checkFunctionalCorrectness (Def. 3.2). Pending jobs are
/// retired at dispatch; ever-read ids live in an IdIntervalSet.
class FunctionalCheckSink final : public TraceSink {
public:
  FunctionalCheckSink(const TaskSet &Tasks, SchedPolicy Policy)
      : Tasks(Tasks), Policy(Policy) {}

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  /// Jobs currently pending (read, not yet dispatched).
  std::size_t pendingJobs() const;

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  const TaskSet &Tasks;
  SchedPolicy Policy;
  CheckResult R;
  std::map<std::uint64_t, std::set<JobId>> Pending;
  IdIntervalSet SeenJobIds;
  std::size_t Index = 0;
};

/// Streaming checkConsistency (Def. 2.1). The arrival tables are
/// input-sized (they mirror the arrival sequence); the per-trace state
/// is the verified prefix per socket plus an IdIntervalSet of read
/// message ids.
class ConsistencyCheckSink final : public TraceSink {
public:
  explicit ConsistencyCheckSink(const ArrivalSequence &Arr);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  CheckResult R;
  std::map<MsgId, Arrival> ByMsg;
  std::vector<std::vector<Arrival>> PerSock;
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
class DeadlineCheckSink final : public TraceSink {
public:
  DeadlineCheckSink(const TaskSet &Tasks, const ArrivalSequence &Arr);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  const std::vector<DeadlineMiss> &misses() const { return Misses; }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  const TaskSet &Tasks;
  CheckResult R;
  /// Message id -> arrival instant (input-sized, mirrors the sequence).
  std::map<MsgId, Time> ArrivalAt;
  /// Open jobs: job id -> (msg id, arrival instant).
  std::map<JobId, std::pair<MsgId, Time>> Open;
  std::vector<DeadlineMiss> Misses;
};

/// Streaming checkWcetRespected (§2.3): checks each basic action's
/// duration as soon as the action closes. O(1) state (one open action).
class WcetCheckSink final : public TraceSink {
public:
  WcetCheckSink(const TaskSet &Tasks, const BasicActionWcets &W)
      : Tasks(Tasks), W(W),
        Seg([this](const BasicAction &A, Time) { onAction(A); }) {}

  void onMarker(const MarkerEvent &E, Time At) override {
    Seg.onMarker(E, At);
  }
  void onEnd(Time EndTime) override { Seg.onEnd(EndTime); }

  const CheckResult &result() const { return R; }
  CheckResult take() { return std::move(R); }

private:
  void onAction(const BasicAction &A);

  const TaskSet &Tasks;
  BasicActionWcets W;
  CheckResult R;
  ActionSegmenter Seg;
};

} // namespace rprosa

#endif // RPROSA_TRACE_CHECK_SINKS_H
