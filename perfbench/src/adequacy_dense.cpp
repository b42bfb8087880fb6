//===- perfbench/src/adequacy_dense.cpp - Workload adequacy_dense ---------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One op is runAdequacyStreaming on one seeded job-dense system — what
/// `rp_verify --stream` does. Systems have 4-8 tasks on 2-8 sockets with
/// µs-scale periodic, leaky-bucket and periodic-jitter curves, the
/// Uniform cost model and Random arrivals; arrival counts come from a
/// fixed ladder of 10^3 to 5.6*10^3 per system, so per-job and
/// per-arrival work dominates.
///
/// The traced form captures the op's trace once with a VectorSink and
/// replays it into each sink on its own, following the composition of
/// runAdequacyStreaming in src/adequacy/pipeline.cpp, so every layer's
/// share is one span.
///
//===----------------------------------------------------------------------===//

#include "common.h"
#include "event_recorder.h"

#include "adequacy/pipeline.h"
#include "convert/schedule_builder.h"
#include "convert/validity_stream.h"
#include "rta/rta_policies.h"
#include "sim/environment.h"
#include "sim/workload.h"
#include "support/rng.h"
#include "trace/check_sinks.h"
#include "trace/stream.h"

#include <map>
#include <memory>
#include <optional>

using namespace rprosa;
using namespace perfbench;

namespace {

/// One system per rung. The shape of each rung is fixed, so every seed
/// yields the same size profile; the seed draws periods, curves and
/// WCETs. Seven rungs keep the op-time median and 90th percentile inside
/// one rung's band rather than on the edge between two.
struct Rung {
  std::uint64_t Arrivals;
  std::uint32_t Tasks;
  std::uint32_t Sockets;
};
constexpr Rung Ladder[] = {{1000, 4, 2}, {1300, 8, 7}, {1700, 5, 4},
                           {2200, 7, 3}, {3000, 6, 8}, {4000, 4, 5},
                           {5600, 8, 6}};

/// The verdict source of runAdequacyStreaming (pipeline.cpp's
/// CompletionIndex): per message, the completion time of the first
/// admitted job that read it.
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

/// Step 7 of the pipeline (pipeline.cpp's renderVerdicts).
void renderVerdicts(const AdequacySpec &Spec, AdequacyReport &Rep,
                    const CompletionIndex &Compl) {
  for (const Arrival &A : Spec.Arr.arrivals()) {
    JobVerdict V;
    V.Msg = A.Msg.Id;
    V.Task = A.Msg.Task;
    V.ArrivalAt = A.At;
    if (V.Task < Rep.Rta.PerTask.size() && Rep.Rta.forTask(V.Task).Bounded)
      V.Bound = Rep.Rta.forTask(V.Task).ResponseBound;
    Time Deadline = satAdd(V.ArrivalAt, V.Bound);
    V.WithinHorizon = Deadline != TimeInfinity && Deadline < Rep.Horizon;
    if (std::optional<Time> C = Compl.completion(A.Msg.Id)) {
      V.Completed = true;
      V.CompletedAt = *C;
      V.ResponseTime = V.CompletedAt - V.ArrivalAt;
    }
    V.Holds = !V.WithinHorizon || (V.Completed && V.CompletedAt <= Deadline);
    Rep.Jobs.push_back(V);
  }
}

/// One seeded job-dense system of rung \p R.
AdequacySpec makeSystem(SplitMix64 &Rng, const Rung &R, Tracer *T) {
  AdequacySpec Spec;
  ClientConfig &C = Spec.Client;
  const std::uint32_t NumTasks = R.Tasks;
  C.NumSockets = R.Sockets;
  C.Wcets = BasicActionWcets::typicalDeployment();
  C.Policy = SchedPolicy::Npfp;

  // The summed arrival rate scales with the polling cost of the socket
  // count, so every system stays far from overload and per-job work
  // dominates. The seed perturbs each task's share of that rate, its
  // WCET and its curve parameters, but not the total, so the simulated
  // horizon and the marker count are the rung's, whatever the seed.
  const double Rate = 1.0 / (1600.0 * (4 + C.NumSockets)); // Per ns.
  std::vector<double> Raw(NumTasks);
  double RawRate = 0;
  for (std::uint32_t I = 0; I < NumTasks; ++I) {
    Raw[I] = (1 + 0.25 * I) * perturb(Rng, 0.1);
    RawRate += 1 / Raw[I];
  }
  for (std::uint32_t I = 0; I < NumTasks; ++I) {
    const Duration Period = static_cast<Duration>(Raw[I] * RawRate / Rate);
    const Duration Wcet = static_cast<Duration>(600 * perturb(Rng, 0.3));
    ArrivalCurvePtr Curve;
    switch (I % 3) {
    case 0:
      Curve = std::make_shared<PeriodicCurve>(Period);
      break;
    case 1:
      Curve = std::make_shared<LeakyBucketCurve>(2, Period);
      break;
    default:
      Curve = std::make_shared<PeriodicJitterCurve>(
          Period, static_cast<Duration>(Period / 4 * perturb(Rng, 0.5)));
      break;
    }
    C.Tasks.addTask("t" + std::to_string(I), Wcet,
                    static_cast<Priority>(NumTasks - I), std::move(Curve));
  }

  WorkloadSpec WS;
  WS.NumSockets = C.NumSockets;
  // Random gaps average a little over one period.
  WS.Horizon = static_cast<Time>(1.15 * double(R.Arrivals) / Rate);
  WS.Seed = Rng.next();
  WS.Style = WorkloadStyle::Random;
  WS.MaxArrivalsPerTask = R.Arrivals;
  {
    Tracer::Scope S(T, "sim.workload_gen_ms");
    Spec.Arr = generateWorkload(C.Tasks, WS);
  }
  Spec.Cost = CostModelKind::Uniform;
  Spec.Seed = Rng.next();
  Spec.Limits.Horizon = WS.Horizon + WS.Horizon / 8 + 200 * TickUs;
  return Spec;
}

class AdequacyDense final : public Workload {
public:
  void setup(std::uint64_t Seed, Tracer *T) override {
    Systems.clear();
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 1);
    for (const Rung &R : Ladder)
      Systems.push_back(makeSystem(Rng, R, T));
  }

  std::size_t numInputs() const override { return Systems.size(); }

  OpOutcome run(std::size_t I, Tracer *T) override {
    const AdequacySpec &Spec = Systems[I];
    AdequacyReport Rep = T ? tracedRun(Spec, *T) : runAdequacyStreaming(Spec);
    OpOutcome O;
    if (!Rep.theoremHolds())
      fail(O, "theorem 5.1 violated");
    if (!Rep.assumptionsHold())
      fail(O, "assumptions violated");
    if (!Rep.invariantsHold())
      fail(O, "invariants violated");
    O.Digest = fnv1a(Rep.summary());
    O.Markers = double(Rep.Markers);
    if (T) {
      T->count("sim.arrivals", double(Spec.Arr.size()));
      T->count("rossl.markers", double(Rep.Markers));
      T->count("core.respects_curves_checks",
               double(Rep.ArrivalOk.checksPerformed()));
      T->count("convert.jobs", double(Rep.NumJobs));
      T->count("adequacy.checks", double(Rep.totalChecks()));
    }
    return O;
  }

private:
  /// runAdequacyStreaming, one span per layer call.
  static AdequacyReport tracedRun(const AdequacySpec &Spec, Tracer &T) {
    const ClientConfig &C = Spec.Client;
    AdequacyReport Rep;
    {
      Tracer::Scope S(&T, "rossl.validate_client_ms");
      Rep.StaticOk = validateClient(C);
    }
    {
      Tracer::Scope S(&T, "core.respects_curves_ms");
      Rep.ArrivalOk = Spec.Arr.respectsCurves(C.Tasks);
    }
    {
      Tracer::Scope S(&T, "core.unique_msg_ids_ms");
      Rep.ArrivalOk.merge(Spec.Arr.uniqueMsgIds());
    }

    VectorSink Capture;
    {
      Tracer::Scope S(&T, "rossl.run_ms");
      Environment Env(Spec.Arr);
      CostModel Costs(C.Wcets, Spec.Cost, Spec.Seed);
      FdScheduler Sched(C, Env, Costs);
      Rep.Horizon = Sched.run(Spec.Limits, Capture);
    }
    const TimedTrace &TT = Capture.trace();

    TimestampCheckSink Ts;
    ProtocolCheckSink Prot(C.NumSockets);
    FunctionalCheckSink Fun(C.Tasks, C.Policy);
    ConsistencyCheckSink Cons(Spec.Arr);
    WcetCheckSink Wcet(C.Tasks, C.Wcets);
    auto Replay = [&](const char *Name, TraceSink &Sink) {
      Tracer::Scope S(&T, Name);
      replayTimedTrace(TT, Sink);
    };
    Replay("trace.timestamps_ms", Ts);
    Replay("trace.protocol_ms", Prot);
    Replay("trace.functional_ms", Fun);
    Replay("trace.consistency_ms", Cons);
    Replay("trace.wcet_ms", Wcet);

    EventRecorder Events;
    ScheduleBuilder Builder(C.NumSockets, Events, &Rep.ScheduleOk);
    Replay("convert.builder_ms", Builder);
    StreamingValidity Val(C.Tasks, Spec.Arr, C.Wcets, C.NumSockets,
                          C.Policy);
    ScheduleStructureSink Struct;
    {
      Tracer::Scope S(&T, "convert.validity_ms");
      Events.replay(Val);
      Events.replay(Struct);
    }
    CompletionIndex Compl;
    {
      Tracer::Scope S(&T, "adequacy.completion_index_ms");
      Events.replay(Compl);
    }

    Rep.Markers = Ts.markers();
    Rep.NumJobs = Builder.admittedJobs();
    Rep.TimestampsOk = Ts.take();
    Rep.ProtocolOk = Prot.take();
    Rep.FunctionalOk = Fun.take();
    Rep.ConsistencyOk = Cons.take();
    Rep.WcetOk = Wcet.take();
    Rep.ScheduleOk.merge(Struct.take());
    Rep.ValidityOk = Val.take();
    {
      Tracer::Scope S(&T, "rta.npfp_ms");
      Rep.Rta = analyzePolicy(C.Tasks, C.Wcets, C.NumSockets, C.Policy,
                              Spec.Rta);
    }
    {
      Tracer::Scope S(&T, "adequacy.verdicts_ms");
      renderVerdicts(Spec, Rep, Compl);
    }
    return Rep;
  }

  std::vector<AdequacySpec> Systems;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeAdequacyDense() {
  return std::make_unique<AdequacyDense>();
}
