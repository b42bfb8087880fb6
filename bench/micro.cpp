//===- bench/micro.cpp - Experiment E10: pipeline microbenchmarks ---------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for every stage of the pipeline:
/// simulation (markers/second), the trace checkers, the conversion, SBF
/// evaluation, the RTA solver as the task count grows, the static
/// protocol model check as the socket count grows, and the static lint
/// with its witness refinement. These document that the executable
/// verification scales to long traces.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "analysis/cfg.h"
#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/witness.h"
#include "analysis/mutants.h"
#include "analysis/timing/segment_costs.h"
#include "analysis/verifier.h"
#include "caesium/parser.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "convert/trace_to_schedule.h"
#include "rossl/scheduler.h"
#include "rta/jitter.h"
#include "rta/rta_npfp.h"
#include "rta/sbf.h"
#include "rta/sweep.h"
#include "sim/environment.h"
#include "sim/workload.h"
#include "trace/chunked_io.h"
#include "trace/consistency.h"
#include "trace/serialize.h"
#include "trace/functional.h"
#include "trace/protocol.h"
#include "trace/wcet_check.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

using namespace rprosa;

namespace {

struct Fixture {
  ClientConfig Client;
  ArrivalSequence Arr{2};
  TimedTrace TT;

  explicit Fixture(Time Horizon = 500 * TickUs) {
    Client.Tasks.addTask("hi", 600 * TickNs, 2,
                         std::make_shared<PeriodicCurve>(15 * TickUs));
    Client.Tasks.addTask("lo", 1800 * TickNs, 1,
                         std::make_shared<PeriodicCurve>(50 * TickUs));
    Client.NumSockets = 2;
    Client.Wcets = BasicActionWcets::typicalDeployment();
    WorkloadSpec Spec;
    Spec.NumSockets = 2;
    Spec.Horizon = Horizon;
    Spec.Style = WorkloadStyle::GreedyDense;
    Arr = generateWorkload(Client.Tasks, Spec);
    Environment Env(Arr);
    CostModel Costs(Client.Wcets, CostModelKind::AlwaysWcet, 1);
    FdScheduler Sched(Client, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = Horizon * 2;
    TT = Sched.run(Limits);
  }
};

const Fixture &sharedFixture() {
  static Fixture F;
  return F;
}

void BM_SimulateRun(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State) {
    Environment Env(F.Arr);
    CostModel Costs(F.Client.Wcets, CostModelKind::AlwaysWcet, 1);
    FdScheduler Sched(F.Client, Env, Costs);
    RunLimits Limits;
    Limits.Horizon = 1 * TickMs;
    TimedTrace TT = Sched.run(Limits);
    benchmark::DoNotOptimize(TT.Tr.size());
    State.counters["markers/s"] = benchmark::Counter(
        double(TT.size()), benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_SimulateRun)->Unit(benchmark::kMillisecond);

void BM_CheckProtocol(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State)
    benchmark::DoNotOptimize(checkProtocol(F.TT.Tr, 2).passed());
  State.counters["markers/s"] = benchmark::Counter(
      double(F.TT.size()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CheckProtocol)->Unit(benchmark::kMicrosecond);

void BM_CheckFunctional(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        checkFunctionalCorrectness(F.TT.Tr, F.Client.Tasks).passed());
}
BENCHMARK(BM_CheckFunctional)->Unit(benchmark::kMicrosecond);

void BM_CheckConsistency(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State)
    benchmark::DoNotOptimize(checkConsistency(F.TT, F.Arr).passed());
}
BENCHMARK(BM_CheckConsistency)->Unit(benchmark::kMicrosecond);

void BM_CheckWcet(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        checkWcetRespected(F.TT, F.Client.Tasks, F.Client.Wcets).passed());
}
BENCHMARK(BM_CheckWcet)->Unit(benchmark::kMicrosecond);

void BM_ConvertTraceToSchedule(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State) {
    ConversionResult CR = convertTraceToSchedule(F.TT, 2);
    benchmark::DoNotOptimize(CR.Sched.length());
  }
}
BENCHMARK(BM_ConvertTraceToSchedule)->Unit(benchmark::kMicrosecond);

void BM_SbfEval(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  OverheadBounds B = OverheadBounds::compute(F.Client.Wcets, 2);
  Duration J = maxReleaseJitter(B);
  std::vector<ArrivalCurvePtr> Alphas;
  for (const Task &T : F.Client.Tasks.tasks())
    Alphas.push_back(T.Curve);
  const Time Cap = 100 * TickSec;
  RosslSupply Supply(std::make_shared<FlatReleaseSet>(Alphas, J, Cap), B,
                     Cap);
  Duration Delta = 1;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Supply.supplyBound(Delta));
    Delta = Delta * 2 % (100 * TickMs) + 1;
  }
}
BENCHMARK(BM_SbfEval);

void BM_RtaSolve(benchmark::State &State) {
  // Task-set size sweep: priorities descend, periods spread out and
  // stretch with N / 4, so every size is schedulable and each point
  // times bounded fixpoints.
  std::int64_t N = State.range(0);
  const std::int64_t Stretch = std::max<std::int64_t>(1, N / 4);
  TaskSet TS;
  for (std::int64_t I = 0; I < N; ++I)
    TS.addTask("t" + std::to_string(I), (400 + 100 * I) * TickNs,
               static_cast<Priority>(N - I),
               std::make_shared<PeriodicCurve>((20 + 10 * I) * Stretch *
                                               TickUs));
  BasicActionWcets W = BasicActionWcets::typicalDeployment();
  RPROSA_CHECK(analyzeNpfp(TS, W, 2).allBounded(),
               "every task of the size sweep must be bounded");
  for (auto _ : State) {
    RtaResult R = analyzeNpfp(TS, W, 2);
    benchmark::DoNotOptimize(R.allBounded());
  }
}
BENCHMARK(BM_RtaSolve)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_RtaSweepQuestion(benchmark::State &State) {
  // One capacity question of the rta_sweep shape, on one thread: 32
  // tasks with log-spaced 1-100 ms periods and equal utilization
  // shares, periodic / leaky-bucket / jitter curves by index, swept
  // over sockets {1, 2, 4, 8, 16} x WCET scales 50-140% at a 1 s cap.
  constexpr std::uint32_t N = 32;
  constexpr double Util = 0.75;
  std::vector<std::string> Names;
  std::vector<Duration> Periods;
  std::vector<ArrivalCurvePtr> Curves;
  for (std::uint32_t I = 0; I < N; ++I) {
    Names.push_back("t");
    Names.back() += std::to_string(I);
    Duration Period = static_cast<Duration>(
        double(TickMs) * std::pow(10.0, 2.0 * I / (N - 1)));
    Periods.push_back(Period);
    if (I % 3 == 0)
      Curves.push_back(std::make_shared<PeriodicCurve>(Period));
    else if (I % 3 == 1)
      Curves.push_back(std::make_shared<LeakyBucketCurve>(2, Period));
    else
      Curves.push_back(
          std::make_shared<PeriodicJitterCurve>(Period, Period / 8));
  }
  std::vector<SweepPoint> Points;
  for (std::uint32_t Sockets : {1u, 2u, 4u, 8u, 16u}) {
    for (std::uint64_t Pct = 50; Pct <= 140; Pct += 10) {
      SweepPoint P;
      for (std::uint32_t I = 0; I < N; ++I) {
        Duration Wcet = static_cast<Duration>(
            Util / N * double(Periods[I]) * double(Pct) / 100.0);
        P.Tasks.addTask(Names[I], std::max<Duration>(Wcet, 1),
                        static_cast<Priority>(N - I), Curves[I],
                        I % 2 ? 0 : Periods[I]);
      }
      P.Cfg.FixedPointCap = 1 * TickSec;
      P.Sbf.Wcets = BasicActionWcets::typicalDeployment();
      P.Sbf.NumSockets = Sockets;
      Points.push_back(std::move(P));
    }
  }
  SweepOptions Opts;
  Opts.Threads = 1;
  SweepRunner Runner(Opts);
  for (auto _ : State) {
    std::vector<RtaResult> Rs = Runner.run(Points);
    benchmark::DoNotOptimize(Rs.data());
  }
}
BENCHMARK(BM_RtaSweepQuestion)->Unit(benchmark::kMillisecond);

void BM_FullAdequacyPipeline(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State) {
    AdequacySpec Spec;
    Spec.Client = F.Client;
    Spec.Arr = F.Arr;
    Spec.Limits.Horizon = 1 * TickMs;
    AdequacyReport Rep = runAdequacy(Spec);
    benchmark::DoNotOptimize(Rep.theoremHolds());
  }
}
BENCHMARK(BM_FullAdequacyPipeline)->Unit(benchmark::kMillisecond);

/// A job-dense system in the shape of perfbench's adequacy_dense middle
/// rung, unperturbed: 7 tasks on 3 sockets, about 2,200 Random arrivals
/// on µs-scale periodic, leaky-bucket and periodic-jitter curves, 600 ns
/// callbacks and the Uniform cost model.
AdequacySpec denseSystem() {
  constexpr std::uint32_t NumTasks = 7;
  constexpr std::uint64_t Arrivals = 2200;
  AdequacySpec Spec;
  ClientConfig &C = Spec.Client;
  C.NumSockets = 3;
  C.Wcets = BasicActionWcets::typicalDeployment();
  C.Policy = SchedPolicy::Npfp;
  // The summed arrival rate scales with the polling cost of the socket
  // count; task I's period is proportional to 1 + I / 4.
  const double Rate = 1.0 / (1600.0 * (4 + C.NumSockets)); // Per ns.
  double RawRate = 0;
  for (std::uint32_t I = 0; I < NumTasks; ++I)
    RawRate += 1 / (1 + 0.25 * I);
  for (std::uint32_t I = 0; I < NumTasks; ++I) {
    const auto Period =
        static_cast<Duration>((1 + 0.25 * I) * RawRate / Rate);
    ArrivalCurvePtr Curve;
    if (I % 3 == 0)
      Curve = std::make_shared<PeriodicCurve>(Period);
    else if (I % 3 == 1)
      Curve = std::make_shared<LeakyBucketCurve>(2, Period);
    else
      Curve = std::make_shared<PeriodicJitterCurve>(Period, Period / 4);
    C.Tasks.addTask("t" + std::to_string(I), 600 * TickNs,
                    static_cast<Priority>(NumTasks - I), std::move(Curve));
  }
  WorkloadSpec WS;
  WS.NumSockets = C.NumSockets;
  WS.Horizon = static_cast<Time>(1.15 * double(Arrivals) / Rate);
  WS.Seed = 7;
  WS.Style = WorkloadStyle::Random;
  WS.MaxArrivalsPerTask = Arrivals;
  Spec.Arr = generateWorkload(C.Tasks, WS);
  Spec.Cost = CostModelKind::Uniform;
  Spec.Seed = 11;
  Spec.Limits.Horizon = WS.Horizon + WS.Horizon / 8 + 200 * TickUs;
  return Spec;
}

void BM_AdequacyStreaming(benchmark::State &State) {
  static const AdequacySpec Spec = denseSystem();
  const AdequacyReport Check = runAdequacyStreaming(Spec);
  RPROSA_CHECK(Check.theoremHolds() && Check.assumptionsHold() &&
                   Check.invariantsHold(),
               "the dense system must satisfy Thm. 5.1 with every "
               "assumption and invariant holding");
  for (auto _ : State) {
    AdequacyReport Rep = runAdequacyStreaming(Spec);
    benchmark::DoNotOptimize(Rep.Markers);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Check.Markers));
  State.counters["markers"] = double(Check.Markers);
  State.counters["jobs"] = double(Check.NumJobs);
}
BENCHMARK(BM_AdequacyStreaming)->Unit(benchmark::kMillisecond);

/// The 2-socket Rössl program with \p Loops counted loops spliced after
/// its dispatch marker: the loop-ladder shape of the end-to-end
/// benchmark's static workload.
analysis::Cfg loopLadder(std::uint32_t Loops) {
  static caesium::AstArena Arena;
  std::string Src = caesium::printStmt(*caesium::buildRosslProgram(2));
  std::size_t At = Src.find('\n', Src.find("dispatch_start(")) + 1;
  std::string Splice;
  for (std::uint32_t I = 0; I < Loops; ++I)
    Splice += "r5 = 0;\nwhile ((r5 < 4)) { r5 = (r5 + 1); }\n";
  std::optional<caesium::StmtPtr> P =
      caesium::parseProgram(Arena, Src.insert(At, Splice));
  RPROSA_CHECK(P.has_value(), "the loop ladder must parse");
  return analysis::buildCfg(*P);
}

void BM_VerifyProtocol(benchmark::State &State) {
  // One exhaustive protocol model check of the N-socket Rössl program,
  // or (argument 0) of the 2-socket 1,000-loop ladder, the shape that
  // sets the static workload's throughput; items are product states
  // explored.
  const auto Arg = static_cast<std::uint32_t>(State.range(0));
  const std::uint32_t N = Arg == 0 ? 2 : Arg;
  const analysis::Cfg G =
      Arg == 0 ? loopLadder(1000)
               : analysis::buildCfg(caesium::buildRosslProgram(N));
  const analysis::Verdict Check = analysis::verifyProtocol(G, N);
  RPROSA_CHECK(Check.verified(),
               "the Rössl program and the loop ladder must verify");
  for (auto _ : State) {
    analysis::Verdict V = analysis::verifyProtocol(G, N);
    benchmark::DoNotOptimize(V.StatesExplored);
  }
  if (Arg == 0)
    State.SetLabel("loops-1000");
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Check.StatesExplored));
  State.counters["states"] = double(Check.StatesExplored);
}
BENCHMARK(BM_VerifyProtocol)->Arg(8)->Arg(64)->Arg(256)->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// One program of BM_StaticLint: its CFG, the socket count it is linted
/// at, and the finding the witness layer must refine to a given status
/// (empty for a program the lint must find clean).
struct LintProgram {
  analysis::Cfg G;
  std::uint32_t Sockets = 2;
  std::string CheckId, Refinement;
};

/// Fixture \p Which of BM_StaticLint: the Rössl program at 2 or 64
/// sockets, the 1,000-loop ladder, the 2-socket witness corpus, or the
/// 2,000-loop ladder.
std::vector<LintProgram> lintPrograms(std::int64_t Which) {
  std::vector<LintProgram> Out;
  if (Which == 0 || Which == 1) {
    const std::uint32_t N = Which == 0 ? 2 : 64;
    Out.push_back({analysis::buildCfg(caesium::buildRosslProgram(N)), N, {},
                   {}});
  } else if (Which == 2 || Which == 4) {
    Out.push_back({loopLadder(Which == 2 ? 1000 : 2000), 2, {}, {}});
  } else {
    for (const analysis::Mutant &M : analysis::witnessMutantCorpus(2))
      Out.push_back({analysis::buildCfg(M.Program), 2, M.ExpectedCheckId,
                     M.ExpectedRefinement});
  }
  return Out;
}

void BM_StaticLint(benchmark::State &State) {
  // runUnifiedAnalyses, then refineFindings with replay, on every
  // program of the fixture; items are programs.
  namespace df = analysis::dataflow;
  const std::vector<LintProgram> Programs = lintPrograms(State.range(0));
  auto Lint = [](const LintProgram &P) {
    df::AnalysisOptions Opts;
    Opts.NumSockets = P.Sockets;
    df::WitnessOptions WOpts;
    WOpts.NumSockets = P.Sockets;
    std::vector<df::Finding> Fs = df::runUnifiedAnalyses(P.G, Opts);
    df::refineFindings(P.G, Fs, WOpts);
    return Fs;
  };
  std::size_t Findings = 0, Refined = 0;
  for (const LintProgram &P : Programs) {
    const std::vector<df::Finding> Fs = Lint(P);
    Findings += Fs.size();
    Refined += std::count_if(Fs.begin(), Fs.end(), [](const df::Finding &F) {
      return F.Refined.has_value();
    });
    const bool Reached = std::any_of(
        Fs.begin(), Fs.end(), [&P](const df::Finding &F) {
          return F.CheckId == P.CheckId && F.Refined &&
                 toString(F.Refined->St) == P.Refinement;
        });
    RPROSA_CHECK(P.CheckId.empty() ? Fs.empty() : Reached,
                 "every clean program must lint clean, and every witness "
                 "mutant must reach its declared refinement");
  }
  static constexpr std::size_t ExpectedFindings[] = {0, 0, 0, 4, 0};
  RPROSA_CHECK(Findings == ExpectedFindings[State.range(0)],
               "the fixture's finding count must stay pinned");
  for (auto _ : State)
    for (const LintProgram &P : Programs)
      benchmark::DoNotOptimize(Lint(P).size());
  static const char *const Names[] = {"rossl(2)", "rossl(64)", "loops-1000",
                                      "witness corpus", "loops-2000"};
  State.SetLabel(Names[State.range(0)]);
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Programs.size()));
  State.counters["findings"] = double(Findings);
  State.counters["refined"] = double(Refined);
}
BENCHMARK(BM_StaticLint)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_AnalyzeTiming(benchmark::State &State) {
  // analyzeTiming, then describeTable, on the 2-socket loop ladder with
  // the argument's loop count: the timing pass with its witness trails
  // rendered and printed; items are programs.
  const auto Loops = static_cast<std::uint32_t>(State.range(0));
  const analysis::Cfg G = loopLadder(Loops);
  analysis::StaticCostParams P;
  P.Wcets = BasicActionWcets::typicalDeployment();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 10 * TickUs;
  const analysis::TimingResult Check = analysis::analyzeTiming(G, P, 2);
  RPROSA_CHECK(Check.allBounded(), "every loop-ladder segment is bounded");
  std::size_t WitnessLines = 0;
  for (const analysis::SegmentBound &S : Check.Segments)
    WitnessLines += S.WitnessMax.size();
  // Each counted loop puts 5 branch visits and 5 assignments on the
  // dispatch segment's trail.
  RPROSA_CHECK(WitnessLines > 10 * Loops,
               "the dispatch witness must walk every spliced loop");
  for (auto _ : State)
    benchmark::DoNotOptimize(
        analysis::analyzeTiming(G, P, 2).describeTable().size());
  State.SetLabel("loops-" + std::to_string(Loops));
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()));
  State.counters["witness_lines"] = double(WitnessLines);
}
BENCHMARK(BM_AnalyzeTiming)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_WorkloadGeneration(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  for (auto _ : State) {
    WorkloadSpec Spec;
    Spec.NumSockets = 2;
    Spec.Horizon = 500 * TickUs;
    Spec.Style = WorkloadStyle::Random;
    ArrivalSequence Arr = generateWorkload(F.Client.Tasks, Spec);
    benchmark::DoNotOptimize(Arr.size());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMicrosecond);

} // namespace

namespace {

/// A read-only stream over bytes held in memory (no copy per read).
class MemBuf final : public std::streambuf {
public:
  explicit MemBuf(const std::string &S) {
    char *B = const_cast<char *>(S.data());
    setg(B, B, B + S.size());
  }
};

/// A sink that only counts, so that the reader alone is timed.
class CountingSink final : public TraceSink {
public:
  void onMarker(const MarkerEvent &, Time) override { ++Markers; }
  void onEnd(Time) override {}
  std::size_t Markers = 0;
};

/// A simulator-written v2 trace of about 2.5 MB.
const std::string &recordedV2Trace() {
  static const std::string Text = [] {
    Fixture F(30000 * TickUs);
    std::ostringstream Out;
    writeTraceStream(Out, F.TT);
    return Out.str();
  }();
  return Text;
}

void BM_ReadTraceStream(benchmark::State &State) {
  const std::string &Text = recordedV2Trace();
  for (auto _ : State) {
    MemBuf Buf(Text);
    std::istream In(&Buf);
    CountingSink Sink;
    bool Ok = readTraceStream(In, Sink);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sink.Markers);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Text.size()));
  State.counters["bytes"] = double(Text.size());
}
BENCHMARK(BM_ReadTraceStream)->Unit(benchmark::kMillisecond);

void BM_SerializeRoundTrip(benchmark::State &State) {
  const Fixture &F = sharedFixture();
  std::string Text = serializeTimedTrace(F.TT);
  for (auto _ : State) {
    std::istringstream In(Text);
    std::optional<TimedTrace> TT = readTimedTrace(In);
    benchmark::DoNotOptimize(TT->size());
  }
  State.counters["bytes"] = double(Text.size());
}
BENCHMARK(BM_SerializeRoundTrip)->Unit(benchmark::kMicrosecond);

} // namespace
