//===- examples/rp_analyze.cpp - Spec-driven analysis front-end -----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deployment-facing tool: read a system spec (see spec_parser.h
/// for the format), run the policy's response-time analysis, and — when
/// asked — validate the bounds against a simulated worst-case run:
///
///   rp_analyze <spec-file> [--simulate <horizon, e.g. 2ms>]
///              [--workload <arrival-log>]
///
/// Without arguments it analyzes a built-in demo spec (which doubles as
/// format documentation).
///
/// The validation run streams (runAdequacyStreaming), so its memory does
/// not grow with the horizon, and stops at a fixed marker budget: a
/// recorded log whose last arrival lies centuries out derives a horizon
/// no run reaches. A run that hits the budget prints it, with the t_hrzn
/// reached, and exits 3. The simulated workload has a fixed budget too,
/// in arrivals per task: a long horizon or a huge burst would otherwise
/// generate more arrivals than memory holds. A task that reaches it is
/// named with the budget, and the run does not start (exit 3).
///
/// A validation run that finishes exits 0 only if Thm. 5.1's
/// assumptions hold and the theorem holds on the run, and 1 otherwise:
/// a failed assumption makes the theorem vacuous, which is no pass.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "adequacy/report.h"
#include "adequacy/spec_parser.h"
#include "rta/rta_policies.h"
#include "rta/sensitivity.h"
#include "sim/arrival_log.h"
#include "sim/workload.h"
#include "support/table.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

using namespace rprosa;

namespace {

const char *Usage = "usage: rp_analyze <spec> [--simulate <horizon>] "
                    "[--workload <arrival-log>]";

/// The validation run's marker budget; the built-in demo, the largest
/// run the shipped inputs ask for, emits 876,900 markers.
constexpr std::size_t MarkerBudget = std::size_t(1) << 24;

/// The simulated workload's arrival budget per task; the largest run
/// the shipped inputs ask for, docs/example.spec over 1 s, generates
/// 33,334 arrivals for one task.
constexpr std::uint64_t ArrivalBudget = std::uint64_t(1) << 18;

const char *DemoSpec = R"(# rp_analyze demo: a small robot node
system demo-robot
sockets 3
policy npfp
wcets fr 400ns sr 900ns sel 300ns disp 250ns compl 350ns idle 2us
task lidar   wcet 800us prio 3 curve periodic 25ms
task control wcet 2ms   prio 2 curve periodic 50ms
task diag    wcet 500us prio 1 curve bucket 2 100ms
)";

int analyze(const SystemSpec &Spec, std::optional<Duration> SimHorizon,
            const std::optional<ArrivalSequence> &Recorded) {
  std::printf("system '%s': %zu tasks, %u sockets, policy %s\n\n",
              Spec.Name.c_str(), Spec.Client.Tasks.size(),
              Spec.Client.NumSockets,
              toString(Spec.Client.Policy).c_str());

  CheckResult Static = validateClient(Spec.Client);
  if (!Static.passed()) {
    std::printf("invalid system:\n%s", Static.describe().c_str());
    return 1;
  }

  OverheadBounds B = OverheadBounds::compute(Spec.Client.Wcets,
                                             Spec.Client.NumSockets);
  RtaResult R = analyzePolicy(Spec.Client.Tasks, Spec.Client.Wcets,
                              Spec.Client.NumSockets, Spec.Client.Policy);

  TableWriter T({"task", "prio", "C_i", "curve", "bound R_i+J_i",
                 "blocking", "busy window"});
  for (const Task &Tk : Spec.Client.Tasks.tasks()) {
    const TaskRta &TR = R.forTask(Tk.Id);
    T.addRow({Tk.Name, std::to_string(Tk.Prio), formatTicksAsNs(Tk.Wcet),
              Tk.Curve->describe(),
              TR.Bounded ? formatTicksAsNs(TR.ResponseBound) : "UNBOUNDED",
              formatTicksAsNs(TR.Blocking),
              TR.Bounded ? formatTicksAsNs(TR.BusyWindow) : "-"});
  }
  std::printf("%s\n", T.renderAscii().c_str());
  std::printf("overhead model: PB=%s SB=%s DB=%s CB=%s RB=%s IB=%s, "
              "release jitter J=%s\n\n",
              formatTicksAsNs(B.PB).c_str(), formatTicksAsNs(B.SB).c_str(),
              formatTicksAsNs(B.DB).c_str(), formatTicksAsNs(B.CB).c_str(),
              formatTicksAsNs(B.RB).c_str(), formatTicksAsNs(B.IB).c_str(),
              formatTicksAsNs(maxReleaseJitter(B)).c_str());

  if (!R.allBounded()) {
    std::printf("verdict: NOT schedulable under the overhead-aware "
                "analysis.\n");
    return 2;
  }
  std::printf("verdict: schedulable; all response times bounded.\n\n");

  // What-if margins: how much error the assumed WCETs tolerate.
  TableWriter TS({"what-if knob", "largest sustainable scale"});
  SensitivityResult Sched = schedulerWcetSlack(
      Spec.Client.Tasks, Spec.Client.Wcets, Spec.Client.NumSockets,
      Spec.Client.Policy);
  TS.addRow({"all basic-action WCETs",
             std::to_string(Sched.MaxScalePercent) + "%"});
  for (const Task &Tk : Spec.Client.Tasks.tasks()) {
    SensitivityResult SR = callbackWcetSlack(
        Spec.Client.Tasks, Spec.Client.Wcets, Spec.Client.NumSockets,
        Tk.Id, Spec.Client.Policy);
    TS.addRow({"C_i of " + Tk.Name,
               std::to_string(SR.MaxScalePercent) + "%"});
  }
  TS.addRow({"socket count",
             "up to " + std::to_string(socketSlack(
                            Spec.Client.Tasks, Spec.Client.Wcets, 4096,
                            Spec.Client.Policy)) +
                 " sockets"});
  std::printf("%s\n", TS.renderAscii().c_str());

  if (SimHorizon) {
    std::printf("\n--- validation run over %s (worst-case costs, dense "
                "arrivals) ---\n",
                formatTicksAsNs(*SimHorizon).c_str());
    AdequacySpec ASpec;
    ASpec.Client = Spec.Client;
    if (Recorded) {
      ASpec.Arr = *Recorded; // Replay the recorded traffic.
    } else {
      WorkloadSpec WSpec;
      WSpec.NumSockets = Spec.Client.NumSockets;
      WSpec.Horizon = *SimHorizon / 2;
      WSpec.Style = WorkloadStyle::GreedyDense;
      WSpec.MaxArrivalsPerTask = ArrivalBudget;
      ASpec.Arr = generateWorkload(Spec.Client.Tasks, WSpec);
      for (const Task &Tk : Spec.Client.Tasks.tasks())
        if (ASpec.Arr.countInWindow(Tk.Id, 0, TimeInfinity) ==
            ArrivalBudget) {
          std::printf("workload generation stopped at its budget of %s "
                      "arrivals per task, at task %s\n",
                      formatWithCommas(ArrivalBudget).c_str(),
                      Tk.Name.c_str());
          return 3;
        }
    }
    ASpec.Limits.Horizon = *SimHorizon;
    ASpec.Limits.MaxMarkers = MarkerBudget;
    AdequacyReport Rep = runAdequacyStreaming(ASpec);
    std::printf("%s\n%s", Rep.summary().c_str(),
                renderTaskTable(Rep, Spec.Client.Tasks).c_str());
    if (Rep.Horizon < *SimHorizon) {
      // The loop stops short of the horizon only at the marker budget.
      std::printf("validation run stopped at its budget of %s markers, at "
                  "t_hrzn = %s\n",
                  formatWithCommas(MarkerBudget).c_str(),
                  formatTicksAsNs(Rep.Horizon).c_str());
      return 3;
    }
    // A failed assumption makes the theorem hold vacuously: no pass.
    return Rep.assumptionsHold() && Rep.theoremHolds() ? 0 : 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Text;
  std::optional<Duration> SimHorizon;
  std::string WorkloadPath;

  if (Argc >= 2) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::printf("cannot open %s\n", Argv[1]);
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    Text = Buf.str();
    for (int I = 2; I < Argc; ++I) {
      std::string_view Flag = Argv[I];
      if (Flag != "--simulate" && Flag != "--workload")
        continue;
      if (I + 1 == Argc) {
        std::fprintf(stderr, "rp_analyze: %s needs a value\n%s\n",
                     Argv[I], Usage);
        return 2;
      }
      const char *Value = Argv[++I];
      if (Flag == "--workload") {
        WorkloadPath = Value;
      } else if (!(SimHorizon = parseTimeLiteral(Value))) {
        std::fprintf(stderr,
                     "rp_analyze: invalid horizon '%s' (expected a time "
                     "literal such as 2ms)\n%s\n",
                     Value, Usage);
        return 2;
      }
    }
  } else {
    std::printf("no spec file given; analyzing the built-in demo "
                "(usage: rp_analyze <spec> [--simulate 2ms])\n\n%s\n",
                DemoSpec);
    Text = DemoSpec;
    SimHorizon = 400 * TickMs;
  }

  CheckResult Diags;
  std::optional<SystemSpec> Spec = parseSystemSpec(Text, &Diags);
  if (!Spec) {
    std::printf("%s", Diags.describe().c_str());
    return 1;
  }

  std::optional<ArrivalSequence> Recorded;
  if (!WorkloadPath.empty()) {
    std::ifstream In(WorkloadPath);
    if (!In) {
      std::printf("cannot open %s\n", WorkloadPath.c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    CheckResult LogDiags;
    Recorded = parseArrivalLog(Buf.str(), Spec->Client.NumSockets,
                               Spec->Client.Tasks.size(), &LogDiags);
    if (!Recorded) {
      std::printf("%s", LogDiags.describe().c_str());
      return 1;
    }
    if (!SimHorizon)
      SimHorizon = satMul(satAdd(Recorded->lastArrivalTime(), 1), 2);
  }
  return analyze(*Spec, SimHorizon, Recorded);
}
