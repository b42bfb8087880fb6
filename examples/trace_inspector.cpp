//===- examples/trace_inspector.cpp - Offline trace checking --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line checker for serialized marker traces: the workflow of
/// re-verifying a recorded run offline (or a trace captured from some
/// other implementation claiming to be Rössl-shaped).
///
///   trace_inspector <trace-file> <num-sockets>
///
/// accepts both the v1 line format (trace/serialize.h) and the chunked
/// v2 format (trace/chunked_io.h) and inspects in ONE streaming pass —
/// the file is never materialized, so multi-GB captures replay in
/// bounded memory. It checks the scheduler protocol (Def. 3.1) and
/// timestamp sanity, and prints the basic-action summary and an ASCII
/// timeline of the converted schedule. Without arguments it runs a
/// self-demo: simulate a run, serialize it chunked, read it back, and
/// inspect that.
///
//===----------------------------------------------------------------------===//

#include "adequacy/spec_parser.h"
#include "convert/schedule_builder.h"
#include "core/schedule_render.h"
#include "rossl/scheduler.h"
#include "sim/environment.h"
#include "sim/workload.h"
#include "support/table.h"
#include "trace/basic_actions.h"
#include "trace/check_sinks.h"
#include "trace/chunked_io.h"
#include "trace/stream.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

using namespace rprosa;

namespace {

const char *Usage = "usage: trace_inspector <file> <num-sockets>";

/// Simulates a demo run and writes its trace to \p Out in the chunked
/// v2 format.
void writeDemoTrace(std::ostream &Out, std::uint32_t NumSockets) {
  ClientConfig Client;
  Client.Tasks.addTask("alpha", 700 * TickNs, 2,
                       std::make_shared<PeriodicCurve>(12 * TickUs));
  Client.Tasks.addTask("beta", 1800 * TickNs, 1,
                       std::make_shared<PeriodicCurve>(30 * TickUs));
  Client.NumSockets = NumSockets;
  Client.Wcets = BasicActionWcets::typicalDeployment();
  WorkloadSpec Spec;
  Spec.NumSockets = NumSockets;
  Spec.Horizon = 100 * TickUs;
  ArrivalSequence Arr = generateWorkload(Client.Tasks, Spec);
  Environment Env(Arr);
  CostModel Costs(Client.Wcets, CostModelKind::Uniform, 11);
  FdScheduler Sched(Client, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = 150 * TickUs;

  // One pass: the simulator streams straight into the chunked writer
  // (small chunks so the demo shows more than one).
  ChunkedTraceWriter Writer(Out, /*EventsPerChunk=*/64);
  Sched.run(Limits, Writer);
}

/// Feeds the incremental action parser / converter only while the
/// timestamp and protocol sinks (which run earlier in the fan-out) are
/// still clean — those downstream consumers assume a conformant stream,
/// and their output is only printed when the checks pass anyway.
class GatedSink final : public TraceSink {
public:
  GatedSink(std::function<bool()> Clean) : Clean(std::move(Clean)) {}

  void add(TraceSink &S) { Inner.add(S); }

  void onMarker(const MarkerEvent &E, Time At) override {
    if (Stopped || !Clean()) {
      Stopped = true;
      return;
    }
    Inner.onMarker(E, At);
  }
  void onEnd(Time EndTime) override {
    if (!Stopped && Clean())
      Inner.onEnd(EndTime);
    else
      Stopped = true;
  }

private:
  std::function<bool()> Clean;
  TraceFanout Inner;
  bool Stopped = false;
};

/// Aggregates the basic-action summary table from the live stream.
class ActionSummarySink final : public TraceSink {
public:
  ActionSummarySink()
      : Seg([this](const BasicAction &A, Time) {
          auto &[Count, Total] = Summary[A.Kind];
          ++Count;
          Total += A.len();
        }) {}

  void onMarker(const MarkerEvent &E, Time At) override {
    Seg.onMarker(E, At);
  }
  void onEnd(Time EndTime) override { Seg.onEnd(EndTime); }

  std::string renderTable() const {
    TableWriter T({"basic action", "count", "total time"});
    for (const auto &[Kind, Agg] : Summary)
      T.addRow({toString(Kind), std::to_string(Agg.first),
                formatTicksAsNs(Agg.second)});
    return T.renderAscii();
  }

private:
  std::map<BasicActionKind, std::pair<std::uint64_t, Duration>> Summary;
  ActionSegmenter Seg;
};

/// Remembers the stream's end time.
class EndTimeSink final : public TraceSink {
public:
  void onMarker(const MarkerEvent &E, Time At) override {
    (void)E;
    (void)At;
  }
  void onEnd(Time EndTime) override { End = EndTime; }

  Time End = 0;
};

int inspect(std::istream &In, std::uint32_t NumSockets) {
  TimestampCheckSink Ts;
  ProtocolCheckSink Prot(NumSockets);
  EndTimeSink End;
  ActionSummarySink Actions;
  ScheduleCapture Capture;
  ScheduleBuilder Builder(NumSockets, Capture);
  GatedSink Gated([&] {
    return Ts.result().passed() && Prot.result().passed();
  });
  Gated.add(Actions);
  Gated.add(Builder);

  TraceFanout Fan;
  Fan.add(Ts);
  Fan.add(Prot);
  Fan.add(End);
  Fan.add(Gated);

  CheckResult ParseDiags;
  TraceStreamStats Stats;
  if (!readTraceStream(In, Fan, &ParseDiags, &Stats)) {
    std::printf("cannot parse trace:\n%s", ParseDiags.describe().c_str());
    return 1;
  }
  std::printf("parsed %zu markers", Stats.Events);
  if (Stats.Chunks > 0)
    std::printf(" (%zu chunks)", Stats.Chunks);
  std::printf(", end time %s\n\n", formatTicksAsNs(End.End).c_str());

  CheckResult TsR = Ts.take();
  std::printf("timestamps: %s\n", TsR.passed() ? "ok" : "FAILED");
  if (!TsR.passed())
    std::printf("%s", TsR.describe().c_str());

  CheckResult ProtR = Prot.take();
  std::printf("scheduler protocol (Def. 3.1, %u sockets): %s\n",
              NumSockets, ProtR.passed() ? "accepted" : "REJECTED");
  if (!ProtR.passed())
    std::printf("%s", ProtR.describe().c_str());
  if (!TsR.passed() || !ProtR.passed())
    return 1;

  std::printf("\n%s\n", Actions.renderTable().c_str());

  ConversionResult CR = Capture.take();
  std::printf("schedule timeline (%zu jobs executed):\n%s",
              CR.Jobs.size(), renderScheduleTimeline(CR.Sched).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 3) {
    std::optional<std::uint32_t> NumSockets = parseSocketCount(Argv[2]);
    if (!NumSockets) {
      std::fprintf(stderr,
                   "trace_inspector: invalid socket count '%s' (expected "
                   "an integer in [1, %u])\n%s\n",
                   Argv[2], MaxSockets, Usage);
      return 2;
    }
    std::ifstream In(Argv[1]);
    if (!In) {
      std::printf("cannot open %s\n", Argv[1]);
      return 1;
    }
    return inspect(In, *NumSockets);
  }
  std::printf("no trace file given; running the self-demo (%s; v1 and "
              "chunked v2 files both work)\n\n",
              Usage);
  std::stringstream Trace;
  writeDemoTrace(Trace, 2);
  return inspect(Trace, 2);
}
