//===- bench/sweep_parallel.cpp - Experiment E18: the sweep engine --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates and measures the parallel sweep engine on the two
/// workloads it was built for:
///
///  1. the E7 sockets_sweep grid — full adequacy pipelines (simulate,
///     convert, verify, analyze) at each socket count — run once on one
///     thread and once on the full pool, timed, with every per-point
///     result compared field by field; and
///  2. an RTA-only SweepRunner grid whose canonical JSON rendering must
///     be *byte-identical* between the serial and parallel runs.
///
/// Emits BENCH_sweep_parallel.json with the wall-clock numbers. The
/// ≥ 2× speedup gate is enforced only when the pool actually has ≥ 4
/// threads (the determinism checks are unconditional). A second gate
/// protects the other end of the scale: on a tiny 3-point grid the
/// parallel run must stay within 5% of serial (≥ 0.95× speedup) — the
/// chunked dispatch with limited wakeups must not tax small batches.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "rta/sweep.h"
#include "sim/workload.h"
#include "support/rng.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

using namespace rprosa;

namespace {

/// One E7-style adequacy point: the full pipeline at one socket count.
struct AdequacyOutcome {
  Duration Bound = 0;
  Duration WorstHi = 0;
  std::uint64_t Violations = 0;
  bool Sound = false;

  bool operator==(const AdequacyOutcome &O) const {
    return Bound == O.Bound && WorstHi == O.WorstHi &&
           Violations == O.Violations && Sound == O.Sound;
  }
};

AdequacyOutcome runAdequacyPoint(std::uint32_t Socks, Duration Horizon) {
  ClientConfig Client;
  TaskId Hi = Client.Tasks.addTask(
      "hi", 800 * TickNs, 2, std::make_shared<PeriodicCurve>(40 * TickUs));
  Client.Tasks.addTask("lo", 2 * TickUs, 1,
                       std::make_shared<PeriodicCurve>(80 * TickUs));
  Client.NumSockets = Socks;
  Client.Wcets = BasicActionWcets::typicalDeployment();

  std::vector<SocketId> Map = {0, Socks > 1 ? 1u : 0u};
  WorkloadSpec Spec;
  Spec.NumSockets = Socks;
  Spec.Horizon = Horizon;
  Spec.Style = WorkloadStyle::GreedyDense;

  AdequacySpec ASpec;
  ASpec.Client = Client;
  ASpec.Arr = generateWorkload(Client.Tasks, Map, Spec);
  ASpec.Limits.Horizon = 8 * Horizon;
  AdequacyReport Rep = runAdequacy(ASpec);

  AdequacyOutcome Out;
  Out.Sound = Rep.theoremHolds() && Rep.assumptionsHold();
  const TaskRta &TR = Rep.Rta.forTask(Hi);
  Out.Bound = TR.Bounded ? TR.ResponseBound : TimeInfinity;
  for (const JobVerdict &V : Rep.Jobs) {
    if (V.Completed && V.Task == Hi)
      Out.WorstHi = std::max(Out.WorstHi, V.ResponseTime);
    Out.Violations += !V.Holds;
  }
  return Out;
}

double runSocketsGrid(ThreadPool &Pool, std::size_t Chunk,
                      const std::vector<std::uint32_t> &Grid,
                      Duration Horizon,
                      std::vector<AdequacyOutcome> &Out) {
  Out.assign(Grid.size(), {});
  auto T0 = std::chrono::steady_clock::now();
  Pool.parallelForChunked(Grid.size(), Chunk, [&](std::size_t I) {
    Out[I] = runAdequacyPoint(Grid[I], Horizon);
  });
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// A seeded RTA-only grid for the byte-identity check.
std::vector<SweepPoint> rtaGrid(std::size_t NumSets) {
  std::vector<SweepPoint> Points;
  SplitMix64 Rng(18);
  for (std::size_t S = 0; S < NumSets; ++S) {
    TaskSet TS;
    std::size_t N = Rng.nextInRange(2, 4);
    for (std::size_t I = 0; I < N; ++I) {
      Duration Period = (10u << Rng.nextInRange(0, 3)) * TickUs;
      Duration Wcet = std::max<Duration>(1, Period / (4 + 2 * N));
      TS.addTask("t" + std::to_string(I), Wcet,
                 static_cast<Priority>(N - I),
                 std::make_shared<PeriodicCurve>(Period),
                 /*Deadline=*/Period);
    }
    for (std::uint32_t Socks : {1u, 4u, 16u}) {
      for (SchedPolicy P : {SchedPolicy::Npfp, SchedPolicy::Fifo}) {
        SweepPoint Pt;
        Pt.Tasks = TS;
        Pt.Cfg.FixedPointCap = 1 * TickSec;
        Pt.Sbf.Wcets = BasicActionWcets::typicalDeployment();
        Pt.Sbf.NumSockets = Socks;
        Pt.Policy = P;
        Points.push_back(std::move(Pt));
      }
    }
  }
  return Points;
}

std::string runRtaGrid(const std::vector<SweepPoint> &Points,
                       unsigned Threads, std::size_t Chunk) {
  SweepOptions Opts;
  Opts.Threads = Threads;
  Opts.ChunkSize = Chunk;
  SweepRunner Runner(Opts);
  return sweepResultsJson(Points, Runner.run(Points));
}

} // namespace

int main(int argc, char **argv) {
  std::printf("=== E18: parallel sweep engine — determinism and "
              "speedup ===\n\n");

  bool Smoke = envFlag("RPROSA_BENCH_SMOKE");
  unsigned Threads = threadsFromArgs(argc, argv);
  std::size_t Chunk = chunkFromArgs(argc, argv);
  ThreadPool Parallel(Threads);
  ThreadPool Serial(1);

  // 1. The E7 sockets_sweep grid, serial vs parallel.
  std::vector<std::uint32_t> Grid =
      Smoke ? std::vector<std::uint32_t>{1, 2, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64};
  Duration Horizon = (Smoke ? 60 : 400) * TickUs;
  std::vector<AdequacyOutcome> SerialOut, ParallelOut;
  double SerialMs = runSocketsGrid(Serial, Chunk, Grid, Horizon, SerialOut);
  double ParallelMs =
      runSocketsGrid(Parallel, Chunk, Grid, Horizon, ParallelOut);
  bool ResultsEqual = SerialOut == ParallelOut;
  double Speedup = ParallelMs > 0 ? SerialMs / ParallelMs : 1.0;
  std::printf("sockets grid (%zu points): serial %.1f ms, parallel "
              "%.1f ms on %u thread(s) -> %.2fx; results %s\n",
              Grid.size(), SerialMs, ParallelMs, Parallel.threads(),
              Speedup, ResultsEqual ? "identical" : "DIFFER");

  // 2. RTA grid: byte-identity of the canonical JSON across thread
  // counts.
  std::vector<SweepPoint> Points = rtaGrid(Smoke ? 4 : 24);
  std::string JsonSerial = runRtaGrid(Points, 1, Chunk);
  std::string JsonParallel = runRtaGrid(Points, Threads, Chunk);
  bool BytesEqual = JsonSerial == JsonParallel;
  std::printf("rta grid (%zu points): serial-vs-parallel JSON %s\n\n",
              Points.size(), BytesEqual ? "byte-identical" : "DIFFERS");

  // 3. The small-batch regression gate: a 3-point grid must not pay
  // for the pool. Best-of-3 on each side to damp scheduler noise.
  std::vector<std::uint32_t> TinyGrid = {1, 2, 4};
  Duration TinyHorizon = 60 * TickUs;
  double TinySerialMs = 1e300, TinyParallelMs = 1e300;
  for (int Rep = 0; Rep < 3; ++Rep) {
    std::vector<AdequacyOutcome> TinyOut;
    TinySerialMs = std::min(
        TinySerialMs,
        runSocketsGrid(Serial, Chunk, TinyGrid, TinyHorizon, TinyOut));
    TinyParallelMs = std::min(
        TinyParallelMs,
        runSocketsGrid(Parallel, Chunk, TinyGrid, TinyHorizon, TinyOut));
  }
  double TinySpeedup =
      TinyParallelMs > 0 ? TinySerialMs / TinyParallelMs : 1.0;
  std::printf("tiny grid (3 points): serial %.2f ms, parallel %.2f ms "
              "-> %.2fx\n\n",
              TinySerialMs, TinyParallelMs, TinySpeedup);

  std::FILE *F = std::fopen("BENCH_sweep_parallel.json", "w");
  if (F) {
    std::fprintf(F,
                 "{\n"
                 "  \"experiment\": \"E18\",\n"
                 "  \"grid_points\": %zu,\n"
                 "  \"threads\": %u,\n"
                 "  \"serial_ms\": %.3f,\n"
                 "  \"parallel_ms\": %.3f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"tiny_serial_ms\": %.3f,\n"
                 "  \"tiny_parallel_ms\": %.3f,\n"
                 "  \"tiny_speedup\": %.3f,\n"
                 "  \"results_identical\": %s,\n"
                 "  \"json_byte_identical\": %s\n"
                 "}\n",
                 Grid.size(), Parallel.threads(), SerialMs, ParallelMs,
                 Speedup, TinySerialMs, TinyParallelMs, TinySpeedup,
                 ResultsEqual ? "true" : "false",
                 BytesEqual ? "true" : "false");
    std::fclose(F);
    std::printf("wrote BENCH_sweep_parallel.json\n");
  }

  bool Ok = ResultsEqual && BytesEqual;
  // The wall-clock gate applies only where the hardware can deliver it:
  // a pool of >= 4 threads on >= 4 cores must cut the grid's time at
  // least in half. (Oversubscribing a smaller machine with --threads=4
  // exercises the code paths but cannot speed anything up.)
  bool GateActive = Parallel.threads() >= 4 &&
                    std::thread::hardware_concurrency() >= 4;
  if (GateActive && Speedup < 2.0) {
    std::printf("E18 FAILED: %u threads yielded only %.2fx over serial "
                "(>= 2x required)\n",
                Parallel.threads(), Speedup);
    Ok = false;
  }
  if (GateActive && TinySpeedup < 0.95) {
    std::printf("E18 FAILED: the 3-point grid ran at %.2fx serial "
                "(>= 0.95x required: small batches must not pay for "
                "the pool)\n",
                TinySpeedup);
    Ok = false;
  }
  if (!Ok && (ResultsEqual && BytesEqual) == false) {
    std::printf("E18 FAILED: parallel and serial runs disagree\n");
  }
  if (!Ok)
    return 1;
  std::printf("E18 reproduced: the sweep engine is deterministic%s.\n",
              GateActive ? " and >= 2x faster on this host"
                         : " (speedup gate skipped: < 4 threads or "
                           "< 4 cores)");
  return 0;
}
