//===- tests/reference_sinks.h - The dynamic pipeline's map-based sinks ---===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming sinks as they were before their open per-job state
/// moved into JobTable (core/job_table.h) and their message lookups onto
/// the arrival sequence's index, kept as the oracle of
/// sink_reference_test:
///
///  - FunctionalCheckSink: pending pairs in a std::map<key, std::set>;
///  - ConsistencyCheckSink and DeadlineCheckSink: a std::map copy of the
///    arrival sequence per sink, open jobs in a std::map;
///  - ProtocolCheckSink: the reason string built at every step;
///  - ScheduleBuilder: the live job table in a std::map, with its own
///    action segmenter behind a std::function;
///  - StreamingValidity: usage and records in std::maps, and a (c)
///    check that scans every open record at each selection;
///  - CompletionIndex: a std::map from message id to its owning job;
///  - uniqueMsgIds: a std::set of the ids seen, over arrivals();
///  - runAdequacyStreaming: the single-pass driver built from the above.
///
/// Same messages, same order, same check counts, same events: the test
/// admits no divergence. Compiled into sink_reference_test only.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TESTS_REFERENCE_SINKS_H
#define RPROSA_TESTS_REFERENCE_SINKS_H

#include "adequacy/pipeline.h"
#include "convert/schedule_builder.h"
#include "convert/validity.h"
#include "core/arrival_sequence.h"
#include "core/policy.h"
#include "core/task.h"
#include "core/wcet.h"
#include "support/check.h"
#include "support/interval_set.h"
#include "trace/check_sinks.h"
#include "trace/protocol.h"
#include "trace/stream.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rprosa::reference {

class ProtocolCheckSink final : public TraceSink {
public:
  explicit ProtocolCheckSink(std::uint32_t NumSockets) : Sts(NumSockets) {}

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  CheckResult take() { return std::move(R); }

private:
  ProtocolSts Sts;
  CheckResult R;
  std::size_t Index = 0;
  bool Done = false;
};

class FunctionalCheckSink final : public TraceSink {
public:
  FunctionalCheckSink(const TaskSet &Tasks, SchedPolicy Policy)
      : Tasks(Tasks), Policy(Policy) {}

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  std::size_t pendingJobs() const;

  CheckResult take() { return std::move(R); }

private:
  const TaskSet &Tasks;
  SchedPolicy Policy;
  CheckResult R;
  std::map<std::uint64_t, std::set<JobId>> Pending;
  IdIntervalSet SeenJobIds;
  std::size_t Index = 0;
};

class ConsistencyCheckSink final : public TraceSink {
public:
  explicit ConsistencyCheckSink(const ArrivalSequence &Arr);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  CheckResult take() { return std::move(R); }

private:
  CheckResult R;
  std::map<MsgId, Arrival> ByMsg;
  std::vector<std::vector<Arrival>> PerSock;
  std::vector<std::size_t> Verified;
  IdIntervalSet ReadMsgs;
  std::size_t Index = 0;
};

class DeadlineCheckSink final : public TraceSink {
public:
  DeadlineCheckSink(const TaskSet &Tasks, const ArrivalSequence &Arr);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override { (void)EndTime; }

  const std::vector<DeadlineMiss> &misses() const { return Misses; }
  CheckResult take() { return std::move(R); }

private:
  const TaskSet &Tasks;
  CheckResult R;
  std::map<MsgId, Time> ArrivalAt;
  std::map<JobId, std::pair<MsgId, Time>> Open;
  std::vector<DeadlineMiss> Misses;
};

class ScheduleBuilder final : public TraceSink {
public:
  ScheduleBuilder(std::uint32_t NumSockets, ScheduleEventConsumer &Out,
                  CheckResult *Diags = nullptr);

  void onMarker(const MarkerEvent &E, Time At) override;
  void onEnd(Time EndTime) override;

  std::size_t openJobs() const { return Recs.size(); }
  std::size_t admittedJobs() const { return NumAdmitted; }

private:
  struct RAct {
    std::optional<Job> J;
    Duration Len = 0;
    Time ReadEAt = 0;
  };
  struct Rec {
    ConvertedJob CJ;
    std::size_t Index = 0;
  };
  enum class PhaseState : std::uint8_t { Top, InPhase, AwaitAfterSel };

  void diag(std::string Message);
  void processAction(const BasicAction &A, Time ReadEAt);
  void topLevel(const BasicAction &A);
  void pushRead(const BasicAction &A, Time ReadEAt);
  void attributeRound(const std::vector<RAct> &Round);
  void holdFinalRound();
  void endPhaseNoSelection(bool AtEnd);
  void afterSelection(const BasicAction &A, Time ReadEAt);
  Rec &jobEntry(const Job &J, bool &IsNew);
  void emit(ProcState S, Duration Len);
  void flushSeg();

  std::uint32_t NumSockets;
  ScheduleEventConsumer &Out;
  CheckResult *Diags;
  ActionSegmenter<std::function<void(const BasicAction &, Time)>> Seg;

  PhaseState Phase = PhaseState::Top;
  std::vector<RAct> Window;
  std::size_t PhaseReads = 0;
  std::optional<BasicAction> HeldSel;
  Duration FinalRoundLen = 0;

  bool Started = false;
  Time Cursor = 0;
  bool SegOpen = false;
  ScheduleSegment PendingSeg;

  std::map<JobId, Rec> Recs;
  std::size_t NumAdmitted = 0;

  Time LastTs = 0;
  bool HaveTs = false;
};

class StreamingValidity final : public ScheduleEventConsumer {
public:
  StreamingValidity(const TaskSet &Tasks, const ArrivalSequence &Arr,
                    const BasicActionWcets &W, std::uint32_t NumSockets,
                    SchedPolicy Policy = SchedPolicy::Npfp);

  void onScheduleStart(Time At) override;
  void onSegment(const ScheduleSegment &Seg) override;
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override;
  void onJobSelected(const ConvertedJob &CJ, std::size_t Index) override;
  void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) override;
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override;
  void onScheduleEnd(
      const std::vector<std::pair<std::size_t, ConvertedJob>> &Open) override;

  CheckResult take() { return std::move(R); }

  std::size_t openRecords() const { return Recs.size(); }
  std::size_t openUsage() const { return Usage.size(); }

private:
  struct JobUsage {
    Duration ReadOvh = 0;
    Duration ExecTime = 0;
    std::size_t ExecSegments = 0;
    std::size_t PollingInstances = 0;
  };
  struct VRec {
    ConvertedJob CJ;
    std::size_t Index = 0;
    bool Keyed = false;
    bool SelectedCounted = false;
  };
  struct Pending {
    std::uint32_t Block;
    std::uint64_t K1;
    std::uint64_t K2;
    std::string Msg;
  };

  void fail(std::uint32_t Block, std::uint64_t K1, std::uint64_t K2,
            std::string Msg);
  void evalUsage(JobId Id, const JobUsage &U, const ConvertedJob *CJ);
  void evalOrdering(const ConvertedJob &CJ, std::size_t Index);

  const TaskSet &Tasks;
  const ArrivalSequence &Arr;
  BasicActionWcets W;
  SchedPolicy Policy;
  Duration PB;
  Duration RB;

  CheckResult R;
  std::vector<Pending> Buffered;

  std::map<JobId, JobUsage> Usage;
  std::map<JobId, VRec> Recs;
  IdIntervalSet SeenIds;
  IdIntervalSet SeenMsgs;
  std::size_t SegIndex = 0;
  std::size_t KeyedJobs = 0;
  std::size_t SelectedKeyed = 0;
};

/// Per message, the completion time of its first-admitted job.
class CompletionIndex final : public ScheduleEventConsumer {
public:
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override {
    ByMsg.emplace(CJ.J.Msg, Owner{Index, std::nullopt});
  }
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override {
    auto It = ByMsg.find(CJ.J.Msg);
    if (It != ByMsg.end() && It->second.Admission == Index)
      It->second.CompletedAt = CJ.CompletedAt;
  }

  std::optional<Time> completion(MsgId M) const {
    auto It = ByMsg.find(M);
    return It == ByMsg.end() ? std::nullopt : It->second.CompletedAt;
  }

private:
  struct Owner {
    std::size_t Admission = 0;
    std::optional<Time> CompletedAt;
  };
  std::map<MsgId, Owner> ByMsg;
};

/// ArrivalSequence::uniqueMsgIds with a std::set, over arrivals().
CheckResult uniqueMsgIds(const ArrivalSequence &Arr);

/// rprosa::runAdequacyStreaming, composed of the sinks above (and the
/// library's timestamp, WCET and structure sinks, which did not change)
/// behind one TraceFanout.
AdequacyReport runAdequacyStreaming(const AdequacySpec &Spec);

} // namespace rprosa::reference

#endif // RPROSA_TESTS_REFERENCE_SINKS_H
