//===- perfbench/src/trace_replay.cpp - Workload trace_replay -------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline monitoring, what `trace_inspector` does. Set-up simulates a
/// few seeded ms-period deployments (4-6 tasks, 2-4 sockets, the
/// typical-deployment WCETs, 20-200 ms periods) and records each run in
/// memory with ChunkedTraceWriter. One op reads one recorded trace with
/// readTraceStream into the five check sinks, the ScheduleBuilder, the
/// StreamingValidity and the structure sink. Polling markers outnumber
/// arrivals by orders of magnitude, so the per-marker cost of the v2
/// parser and the checkers dominates.
///
//===----------------------------------------------------------------------===//

#include "common.h"
#include "event_recorder.h"

#include "adequacy/pipeline.h"
#include "convert/schedule_builder.h"
#include "convert/validity_stream.h"
#include "sim/environment.h"
#include "sim/workload.h"
#include "support/rng.h"
#include "trace/check_sinks.h"
#include "trace/chunked_io.h"

#include <istream>
#include <memory>
#include <sstream>
#include <streambuf>

using namespace rprosa;
using namespace perfbench;

namespace {

/// The recorded deployments, one trace each: a fixed size profile (the
/// seed draws periods, WCETs and arrivals), seven so the op-time
/// quantiles fall inside one trace's band.
struct Rung {
  Duration HorizonMs;
  std::uint32_t Tasks;
  std::uint32_t Sockets;
};
constexpr Rung Ladder[] = {{6, 4, 2},  {8, 6, 4},  {11, 5, 3}, {15, 4, 4},
                           {20, 6, 2}, {27, 5, 3}, {36, 4, 2}};

/// A read-only istream over bytes held in memory (no copy per op).
class MemBuf final : public std::streambuf {
public:
  explicit MemBuf(const std::string &S) {
    char *B = const_cast<char *>(S.data());
    setg(B, B, B + S.size());
  }
};

struct Recording {
  ClientConfig Client;
  ArrivalSequence Arr{1};
  std::string Bytes;
  std::size_t Events = 0;
};

/// The per-op result rendering that the digest covers.
std::string render(const TraceStreamStats &St, std::size_t Jobs,
                   const std::vector<std::pair<const char *, CheckResult>> &Rs) {
  std::string Out = "events " + std::to_string(St.Events) + " chunks " +
                    std::to_string(St.Chunks) + " end " +
                    (St.SawEnd ? "yes" : "no") + " jobs " +
                    std::to_string(Jobs) + "\n";
  for (const auto &[Name, R] : Rs) {
    Out += std::string(Name) + (R.passed() ? ": ok (" : ": FAILED (") +
           std::to_string(R.checksPerformed()) + " checks)\n";
    if (!R.passed())
      Out += R.describe();
  }
  return Out;
}

class TraceReplay final : public Workload {
public:
  void setup(std::uint64_t Seed, Tracer *T) override {
    Recs.clear();
    SplitMix64 Rng(Seed * 0xd1b54a32d192ed03ull + 2);
    for (const Rung &R : Ladder)
      Recs.push_back(record(Rng, R, T));
  }

  std::size_t numInputs() const override { return Recs.size(); }

  OpOutcome run(std::size_t I, Tracer *T) override {
    const Recording &R = Recs[I];
    const ClientConfig &C = R.Client;
    MemBuf Buf(R.Bytes);
    std::istream In(&Buf);

    TimestampCheckSink Ts;
    ProtocolCheckSink Prot(C.NumSockets);
    FunctionalCheckSink Fun(C.Tasks, C.Policy);
    ConsistencyCheckSink Cons(R.Arr);
    WcetCheckSink Wcet(C.Tasks, C.Wcets);
    StreamingValidity Val(C.Tasks, R.Arr, C.Wcets, C.NumSockets, C.Policy);
    ScheduleStructureSink Struct;
    CheckResult ScheduleOk;

    CheckResult Diags;
    TraceStreamStats St;
    bool WellFormed = false;
    std::size_t Jobs = 0;
    if (!T) {
      ScheduleEventFanout Events;
      Events.add(Val);
      Events.add(Struct);
      ScheduleBuilder Builder(C.NumSockets, Events, &ScheduleOk);
      TraceFanout Fan;
      Fan.add(Ts);
      Fan.add(Prot);
      Fan.add(Fun);
      Fan.add(Cons);
      Fan.add(Wcet);
      Fan.add(Builder);
      WellFormed = readTraceStream(In, Fan, &Diags, &St);
      Jobs = Builder.admittedJobs();
    } else {
      // Read once into memory, then replay into each consumer alone.
      VectorSink Capture;
      {
        Tracer::Scope S(T, "trace.read_ms");
        WellFormed = readTraceStream(In, Capture, &Diags, &St);
      }
      const TimedTrace &TT = Capture.trace();
      auto Replay = [&](const char *Name, TraceSink &Sink) {
        Tracer::Scope S(T, Name);
        replayTimedTrace(TT, Sink);
      };
      Replay("trace.timestamps_ms", Ts);
      Replay("trace.protocol_ms", Prot);
      Replay("trace.functional_ms", Fun);
      Replay("trace.consistency_ms", Cons);
      Replay("trace.wcet_ms", Wcet);
      EventRecorder Events;
      ScheduleBuilder Builder(C.NumSockets, Events, &ScheduleOk);
      Replay("convert.builder_ms", Builder);
      {
        Tracer::Scope S(T, "convert.validity_ms");
        Events.replay(Val);
        Events.replay(Struct);
      }
      Jobs = Builder.admittedJobs();
      T->count("trace.read_bytes", double(R.Bytes.size()));
      T->count("trace.read_chunks", double(St.Chunks));
      T->count("convert.jobs", double(Jobs));
    }
    ScheduleOk.merge(Struct.take());

    std::vector<std::pair<const char *, CheckResult>> Rs;
    Rs.emplace_back("parse", std::move(Diags));
    Rs.emplace_back("timestamps", Ts.take());
    Rs.emplace_back("scheduler protocol", Prot.take());
    Rs.emplace_back("functional correctness", Fun.take());
    Rs.emplace_back("trace/arrival consistency", Cons.take());
    Rs.emplace_back("WCET respected", Wcet.take());
    Rs.emplace_back("schedule structure", std::move(ScheduleOk));
    Rs.emplace_back("validity (a)-(e)", Val.take());

    OpOutcome O;
    if (!WellFormed || !St.SawEnd)
      fail(O, "trace not well formed through its end line");
    if (St.Events != R.Events)
      fail(O, "event count differs from the writer's");
    for (const auto &[Name, Res] : Rs)
      if (!Res.passed())
        fail(O, std::string(Name) + " failed");
    O.Digest = fnv1a(render(St, Jobs, Rs));
    O.Markers = double(St.Events);
    O.Bytes = double(R.Bytes.size());
    return O;
  }

private:
  /// Simulates one deployment of rung \p G and records its trace.
  static Recording record(SplitMix64 &Rng, const Rung &G, Tracer *T) {
    Recording R;
    ClientConfig &C = R.Client;
    const Duration Horizon = G.HorizonMs * TickMs;
    const std::uint32_t NumTasks = G.Tasks;
    C.NumSockets = G.Sockets;
    C.Wcets = BasicActionWcets::typicalDeployment();
    for (std::uint32_t I = 0; I < NumTasks; ++I) {
      Duration Period = Rng.nextInRange(20, 200) * TickMs;
      // Short callbacks: polling, not execution, fills the horizon.
      C.Tasks.addTask("t" + std::to_string(I),
                      Rng.nextInRange(20, 100) * TickUs,
                      static_cast<Priority>(NumTasks - I),
                      std::make_shared<PeriodicCurve>(Period));
    }
    WorkloadSpec WS;
    WS.NumSockets = C.NumSockets;
    WS.Horizon = Horizon;
    WS.Seed = Rng.next();
    WS.Style = WorkloadStyle::Random;
    R.Arr = generateWorkload(C.Tasks, WS);

    Environment Env(R.Arr);
    CostModel Costs(C.Wcets, CostModelKind::Uniform, Rng.next());
    FdScheduler Sched(C, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = Horizon;
    std::ostringstream Out;
    ChunkedTraceWriter Writer(Out);
    if (!T) {
      Sched.run(Limits, Writer);
    } else {
      VectorSink Capture;
      Sched.run(Limits, Capture);
      Tracer::Scope S(T, "trace.write_ms");
      replayTimedTrace(Capture.trace(), Writer);
    }
    R.Events = Writer.written();
    R.Bytes = Out.str();
    return R;
  }

  std::vector<Recording> Recs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeTraceReplay() {
  return std::make_unique<TraceReplay>();
}
