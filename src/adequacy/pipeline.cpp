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

#include <map>
#include <optional>

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

/// Step 7: per-job verdicts. Completion is matched by message identity
/// (job ids are assigned at read time, arrivals are identified by
/// MsgId); \p ByMsg maps each read message to the completion time of
/// the job that owns it — the *first* job in conversion-table order
/// that read it.
void renderVerdicts(const AdequacySpec &Spec, AdequacyReport &Rep,
                    const std::map<MsgId, std::optional<Time>> &ByMsg) {
  for (const Arrival &A : Spec.Arr.arrivals()) {
    JobVerdict V;
    V.Msg = A.Msg.Id;
    V.Task = A.Msg.Task;
    V.ArrivalAt = A.At;
    if (V.Task < Rep.Rta.PerTask.size() &&
        Rep.Rta.forTask(V.Task).Bounded)
      V.Bound = Rep.Rta.forTask(V.Task).ResponseBound;
    Time Deadline = satAdd(V.ArrivalAt, V.Bound);
    V.WithinHorizon = Deadline != TimeInfinity && Deadline < Rep.Horizon;
    auto It = ByMsg.find(A.Msg.Id);
    if (It != ByMsg.end() && It->second) {
      V.Completed = true;
      V.CompletedAt = *It->second;
      V.ResponseTime = V.CompletedAt - V.ArrivalAt;
    }
    V.Holds = !V.WithinHorizon || (V.Completed && V.CompletedAt <= Deadline);
    Rep.Jobs.push_back(V);
  }
}

/// The verdict source: remembers, per message, the completion time of
/// its owning job — the first-admitted job that read the message — so a
/// completion from a different (duplicate-message) job is ignored.
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

  std::map<MsgId, std::optional<Time>> take() {
    std::map<MsgId, std::optional<Time>> Out;
    for (const auto &[M, O] : ByMsg)
      Out.emplace(M, O.CompletedAt);
    return Out;
  }

private:
  struct Owner {
    std::size_t Admission = 0;
    std::optional<Time> CompletedAt;
  };
  std::map<MsgId, Owner> ByMsg;
};

/// Steps 1-7 as one pass: one simulator run drives the five trace
/// invariants and, behind the incremental converter, the structure,
/// validity, and verdict consumers. \p TraceTap and \p EventTap, when
/// non-null, join the trace and event fan-outs (runAdequacy's capture
/// sinks).
AdequacyReport drive(const AdequacySpec &Spec, TraceSink *TraceTap,
                     ScheduleEventConsumer *EventTap) {
  AdequacyReport Rep;
  checkAssumptions(Spec, Rep);

  Environment Env(Spec.Arr);
  CostModel Costs(Spec.Client.Wcets, Spec.Cost, Spec.Seed);
  FdScheduler Sched(Spec.Client, Env, Costs);

  TimestampCheckSink Ts;
  ProtocolCheckSink Prot(Spec.Client.NumSockets);
  FunctionalCheckSink Fun(Spec.Client.Tasks, Spec.Client.Policy);
  ConsistencyCheckSink Cons(Spec.Arr);
  WcetCheckSink Wcet(Spec.Client.Tasks, Spec.Client.Wcets);

  StreamingValidity Val(Spec.Client.Tasks, Spec.Arr, Spec.Client.Wcets,
                        Spec.Client.NumSockets, Spec.Client.Policy);
  ScheduleStructureSink Struct;
  CompletionIndex Compl;
  ScheduleEventFanout Events;
  Events.add(Val);
  Events.add(Struct);
  Events.add(Compl);
  if (EventTap)
    Events.add(*EventTap);
  ScheduleBuilder Builder(Spec.Client.NumSockets, Events, &Rep.ScheduleOk);

  TraceFanout Fan;
  Fan.add(Ts);
  Fan.add(Prot);
  Fan.add(Fun);
  Fan.add(Cons);
  Fan.add(Wcet);
  Fan.add(Builder);
  if (TraceTap)
    Fan.add(*TraceTap);

  Rep.Horizon = Sched.run(Spec.Limits, Fan);
  Rep.Markers = Ts.markers();
  Rep.NumJobs = Builder.admittedJobs();

  Rep.TimestampsOk = Ts.take();
  Rep.ProtocolOk = Prot.take();
  Rep.FunctionalOk = Fun.take();
  Rep.ConsistencyOk = Cons.take();
  Rep.WcetOk = Wcet.take();
  // ScheduleOk already carries the builder's conversion diagnostics;
  // the structure checks follow them.
  Rep.ScheduleOk.merge(Struct.take());
  Rep.ValidityOk = Val.take();

  runRta(Spec, Rep);
  renderVerdicts(Spec, Rep, Compl.take());
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
