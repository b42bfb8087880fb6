//===- adequacy/pipeline.cpp ----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"

#include "convert/schedule_builder.h"
#include "convert/validity_stream.h"
#include "rta/rta_policies.h"
#include "sim/environment.h"
#include "trace/check_sinks.h"

#include <cstdint>
#include <optional>
#include <vector>

using namespace rprosa;

bool AdequacyReport::assumptionsHold() const {
  return StaticOk.passed() && ArrivalOk.passed() && WcetOk.passed() &&
         ConsistencyOk.passed() && TimestampsOk.passed();
}

bool AdequacyReport::invariantsHold() const {
  return ProtocolOk.passed() && FunctionalOk.passed() &&
         ScheduleOk.passed() && ValidityOk.passed();
}

bool AdequacyReport::conclusionHolds() const {
  for (const JobVerdict &V : Jobs)
    if (!V.Holds)
      return false;
  return true;
}

std::size_t AdequacyReport::totalChecks() const {
  std::size_t N = 0;
  for (const CheckResult *R :
       {&StaticOk, &ArrivalOk, &TimestampsOk, &ProtocolOk, &FunctionalOk,
        &ConsistencyOk, &WcetOk, &ScheduleOk, &ValidityOk})
    N += R->checksPerformed();
  return N + Jobs.size();
}

namespace {

/// Steps 1-2: assumptions on the model and the workload.
void checkAssumptions(const AdequacySpec &Spec, AdequacyReport &Rep) {
  Rep.StaticOk = validateClient(Spec.Client);
  Rep.ArrivalOk = Spec.Arr.respectsCurves(Spec.Client.Tasks);
  Rep.ArrivalOk.merge(Spec.Arr.uniqueMsgIds());
}

/// Step 6: the RTA matching the client's policy, from StaticTiming when
/// set and from the hand-supplied tables otherwise.
void runRta(const AdequacySpec &Spec, AdequacyReport &Rep) {
  TimingInputs In{Spec.Client.Wcets, {}, TimingSource::HandSupplied};
  Rep.Rta = analyzePolicy(Spec.Client.Tasks,
                          Spec.StaticTiming ? *Spec.StaticTiming : In,
                          Spec.Client.NumSockets, Spec.Client.Policy,
                          Spec.Rta);
}

/// The verdict source: remembers, per arrival position, the completion
/// time of its message's owning job — the first-admitted job that read
/// the message — so a completion from a different (duplicate-message)
/// job is ignored. An admission looks its message up in the arrival
/// sequence's index once; a retirement finds the position again through
/// the admission index. A duplicated message id is owned at its first
/// position in arrivals() order, and finish() copies the owner's
/// completion to the others.
class CompletionIndex final : public ScheduleEventConsumer {
public:
  explicit CompletionIndex(const ArrivalSequence &Arr)
      : Arr(Arr), ByPos(Arr.size()) {
    PosOf.reserve(Arr.size()); // One admission per arrival, when conformant.
  }

  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override {
    if (Index >= PosOf.size())
      PosOf.resize(Index + 1, NotOwner);
    std::optional<std::size_t> Pos = Arr.positionOfMsg(CJ.J.Msg);
    if (Pos && !ByPos[*Pos].Owned) {
      ByPos[*Pos].Owned = true;
      PosOf[Index] = static_cast<std::uint32_t>(*Pos);
    }
  }
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override {
    if (Index < PosOf.size() && PosOf[Index] != NotOwner)
      ByPos[PosOf[Index]].CompletedAt = CJ.CompletedAt;
  }

  /// Gives each duplicated message id's later arrivals the completion of
  /// its first; call once, after the run.
  void finish() {
    for (const auto &[First, Dup] : Arr.duplicateMsgIds())
      ByPos[Dup].CompletedAt = ByPos[First].CompletedAt;
  }

  /// The completion time of the owning job of the message that arrives
  /// at position \p Pos of arrivals(), if it completed.
  std::optional<Time> completion(std::size_t Pos) const {
    return ByPos[Pos].CompletedAt;
  }

private:
  static constexpr std::uint32_t NotOwner = ~std::uint32_t(0);
  struct Slot {
    bool Owned = false;
    std::optional<Time> CompletedAt;
  };

  const ArrivalSequence &Arr;
  std::vector<Slot> ByPos;
  /// Admission index -> owned arrival position, or NotOwner.
  std::vector<std::uint32_t> PosOf;
};

/// Step 7: per-job verdicts. Completion is matched by message identity
/// (job ids are assigned at read time, arrivals are identified by
/// MsgId) through \p Compl.
void renderVerdicts(const AdequacySpec &Spec, AdequacyReport &Rep,
                    const CompletionIndex &Compl) {
  const std::vector<Arrival> &All = Spec.Arr.arrivals();
  Rep.Jobs.reserve(All.size());
  for (std::size_t P = 0; P < All.size(); ++P) {
    const Arrival &A = All[P];
    JobVerdict V;
    V.Msg = A.Msg.Id;
    V.Task = A.Msg.Task;
    V.ArrivalAt = A.At;
    if (V.Task < Rep.Rta.PerTask.size() &&
        Rep.Rta.forTask(V.Task).Bounded)
      V.Bound = Rep.Rta.forTask(V.Task).ResponseBound;
    Time Deadline = satAdd(V.ArrivalAt, V.Bound);
    V.WithinHorizon = Deadline != TimeInfinity && Deadline < Rep.Horizon;
    if (std::optional<Time> C = Compl.completion(P)) {
      V.Completed = true;
      V.CompletedAt = *C;
      V.ResponseTime = V.CompletedAt - V.ArrivalAt;
    }
    V.Holds = !V.WithinHorizon || (V.Completed && V.CompletedAt <= Deadline);
    Rep.Jobs.push_back(V);
  }
}

/// The trace side of one pass. The sink set is fixed, so each marker
/// reaches the five trace checkers and the converter by direct calls on
/// their final types rather than through a TraceFanout: one virtual call
/// per marker instead of one per sink (DESIGN.md §9). One
/// ActionSegmenter cuts the markers into basic actions for both
/// WcetCheckSink and ScheduleBuilder, through their action-level faces;
/// the builder's timestamp-order preconditions still run per marker.
/// \p Tap, when set (runAdequacy's capture), comes last.
class PipelineSinks final : public TraceSink {
public:
  PipelineSinks(const AdequacySpec &Spec, ScheduleEventConsumer &Events,
                CheckResult &Diags, TraceSink *Tap)
      : Prot(Spec.Client.NumSockets),
        Fun(Spec.Client.Tasks, Spec.Client.Policy), Cons(Spec.Arr),
        Wcet(Spec.Client.Tasks, Spec.Client.Wcets),
        Builder(Spec.Client.NumSockets, Events, &Diags),
        Seg(ActionsTo<PipelineSinks>{this}), Tap(Tap) {}

  void onMarker(const MarkerEvent &E, Time At) override {
    Ts.onMarker(E, At);
    Prot.onMarker(E, At);
    Fun.onMarker(E, At);
    Cons.onMarker(E, At);
    Builder.checkMarkerTime(At);
    Seg.onMarker(E, At);
    if (Tap)
      Tap->onMarker(E, At);
  }
  void onEnd(Time EndTime) override {
    Ts.onEnd(EndTime);
    Prot.onEnd(EndTime);
    Fun.onEnd(EndTime);
    Cons.onEnd(EndTime);
    Builder.checkEndTime(EndTime);
    Seg.onEnd(EndTime);
    Builder.finish();
    if (Tap)
      Tap->onEnd(EndTime);
  }

  /// One closed basic action, from Seg.
  void onAction(const BasicAction &A, Time ReadEAt) {
    Wcet.onAction(A, ReadEAt);
    Builder.onAction(A, ReadEAt);
  }

  TimestampCheckSink Ts;
  ProtocolCheckSink Prot;
  FunctionalCheckSink Fun;
  ConsistencyCheckSink Cons;
  WcetCheckSink Wcet;
  ScheduleBuilder Builder;

private:
  ActionSegmenter<ActionsTo<PipelineSinks>> Seg;
  TraceSink *Tap;
};

/// Steps 1-7 as one pass: one simulator run drives the five trace
/// invariants and, behind the incremental converter, the structure,
/// validity, and verdict consumers. \p TraceTap and \p EventTap, when
/// non-null, follow the trace sinks and join the event fan-out
/// (runAdequacy's capture sinks).
AdequacyReport drive(const AdequacySpec &Spec, TraceSink *TraceTap,
                     ScheduleEventConsumer *EventTap) {
  AdequacyReport Rep;
  checkAssumptions(Spec, Rep);

  Environment Env(Spec.Arr);
  CostModel Costs(Spec.Client.Wcets, Spec.Cost, Spec.Seed);
  FdScheduler Sched(Spec.Client, Env, Costs);

  StreamingValidity Val(Spec.Client.Tasks, Spec.Arr, Spec.Client.Wcets,
                        Spec.Client.NumSockets, Spec.Client.Policy);
  ScheduleStructureSink Struct;
  CompletionIndex Compl(Spec.Arr);
  ScheduleEventFanout Events;
  Events.add(Val);
  Events.add(Struct);
  Events.add(Compl);
  if (EventTap)
    Events.add(*EventTap);
  PipelineSinks Sinks(Spec, Events, Rep.ScheduleOk, TraceTap);

  Rep.Horizon = Sched.run(Spec.Limits, Sinks);
  Rep.Markers = Sinks.Ts.markers();
  Rep.NumJobs = Sinks.Builder.admittedJobs();

  Rep.TimestampsOk = Sinks.Ts.take();
  Rep.ProtocolOk = Sinks.Prot.take();
  Rep.FunctionalOk = Sinks.Fun.take();
  Rep.ConsistencyOk = Sinks.Cons.take();
  Rep.WcetOk = Sinks.Wcet.take();
  // ScheduleOk already carries the builder's conversion diagnostics;
  // the structure checks follow them.
  Rep.ScheduleOk.merge(Struct.take());
  Rep.ValidityOk = Val.take();

  runRta(Spec, Rep);
  Compl.finish();
  renderVerdicts(Spec, Rep, Compl);
  return Rep;
}

} // namespace

AdequacyReport rprosa::runAdequacy(const AdequacySpec &Spec) {
  VectorSink Trace;
  ScheduleCapture Conv;
  AdequacyReport Rep = drive(Spec, &Trace, &Conv);
  Rep.TT = Trace.take();
  Rep.Conv = Conv.take();
  return Rep;
}

AdequacyReport rprosa::runAdequacyStreaming(const AdequacySpec &Spec) {
  return drive(Spec, nullptr, nullptr);
}
