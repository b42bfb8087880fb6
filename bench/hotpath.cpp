//===- bench/hotpath.cpp - Experiment E21: the RTA hot path ---------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the three hot-path optimizations of the flat-kernel rework
/// and gates on the wins they were built for:
///
///  1. single-point curve evaluation — the same nested release curve
///     evaluated through the virtual ArrivalCurve tree, through
///     MemoCurve (the sharded eval memo the sweep engine used before
///     flat tables, kept in this file as the experiment's baseline), and
///     through FlatCurveTable. Gate: flat ≥ 3× the memoized throughput
///     on one thread (checksums asserted identical, so the comparison
///     is apples-to-apples);
///
///  2. warm-started fixpoints — a 10k-point neighbor grid (each point a
///     small perturbation of the last) analyzed cold (no seeding at
///     all) and warm (intra-point seeding: S_q from S_{q−1}, and the
///     supply memo's nearest-lower seed). Gate: warm saves ≥ 30% of the
///     fixpoint iterations, with byte-identical results — iteration
///     counts are deterministic, so this gate holds on any machine;
///
///  3. sweep wall-clock at 3, 48, and 10k points, serial vs parallel,
///     with the adaptive chunking in effect (informational: wall-clock
///     speedups are hardware-dependent and gated by E18 instead).
///
/// Emits BENCH_hotpath.json. `--smoke` (or RPROSA_BENCH_SMOKE=1)
/// shrinks the workloads for CI; the two gates stay armed since both
/// are machine-independent ratios.
///
//===----------------------------------------------------------------------===//

#include "core/curve_table.h"
#include "rta/sweep.h"
#include "support/check.h"
#include "support/parallel.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

using namespace rprosa;

namespace {

/// A thread-safe memoizing view of a pure arrival curve. eval() caches
/// (Delta -> bound) in a sharded map; describe() delegates, so memoized
/// and plain curves render identically everywhere.
class MemoCurve : public ArrivalCurve {
public:
  explicit MemoCurve(ArrivalCurvePtr Inner);

  std::uint64_t eval(Duration Delta) const override;
  std::string describe() const override { return Inner->describe(); }

  /// Forwarded verbatim: a memoized curve must compile to the same flat
  /// table as its inner curve (the default would drop the tail and
  /// force horizon-length scans).
  std::optional<CurveTail> tail() const override { return Inner->tail(); }

  const ArrivalCurvePtr &inner() const { return Inner; }

  /// Cache effectiveness counters (exact; relaxed atomics — ordering is
  /// irrelevant for counts). Miss semantics: a miss is counted only by
  /// the evaluation that actually inserted its Δ into the cache, so
  /// misses() equals the number of distinct Δs cached and can never
  /// exceed the unique-Δ count; when two lanes race on the same Δ, the
  /// race loser counts as a hit. hits() + misses() == eval() calls.
  std::uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return Misses.load(std::memory_order_relaxed);
  }

private:
  static constexpr std::size_t NumShards = 16;
  struct Shard {
    mutable std::shared_mutex M;
    mutable std::unordered_map<Duration, std::uint64_t> Map;
  };

  ArrivalCurvePtr Inner;
  mutable std::array<Shard, NumShards> Shards;
  mutable std::atomic<std::uint64_t> Hits{0};
  mutable std::atomic<std::uint64_t> Misses{0};
};

MemoCurve::MemoCurve(ArrivalCurvePtr InnerCurve)
    : Inner(std::move(InnerCurve)) {
  RPROSA_CHECK(Inner != nullptr, "MemoCurve requires a curve to wrap");
}

std::uint64_t MemoCurve::eval(Duration Delta) const {
  Shard &S = Shards[std::hash<Duration>{}(Delta) % NumShards];
  {
    std::shared_lock<std::shared_mutex> L(S.M);
    auto It = S.Map.find(Delta);
    if (It != S.Map.end()) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }
  // Evaluate outside any lock: the inner curve is pure, so a racing
  // duplicate evaluation computes the same value. A miss is counted
  // only by the evaluation whose emplace actually inserts the point:
  // misses() == distinct cached Δs, and hits() + misses() == eval()
  // calls, even when two lanes race on the same Δ (the race loser did
  // find the point cached by the time the cache settled, so it counts
  // as a hit).
  std::uint64_t V = Inner->eval(Delta);
  bool Inserted = false;
  {
    std::unique_lock<std::shared_mutex> L(S.M);
    Inserted = S.Map.emplace(Delta, V).second;
  }
  (Inserted ? Misses : Hits).fetch_add(1, std::memory_order_relaxed);
  return V;
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// The nested release-curve shape the analyses actually evaluate:
/// shifted sum of heterogeneous sources.
ArrivalCurvePtr nestedCurve() {
  std::vector<ArrivalCurvePtr> Parts = {
      std::make_shared<PeriodicCurve>(7 * TickUs),
      std::make_shared<LeakyBucketCurve>(3, 5 * TickUs),
      std::make_shared<ScaledCurve>(
          std::make_shared<PeriodicJitterCurve>(11 * TickUs, 2 * TickUs),
          2)};
  return std::make_shared<ShiftedCurve>(
      std::make_shared<SumCurve>(std::move(Parts)), 3 * TickUs);
}

/// A deterministic delta schedule shaped like fixpoint iteration:
/// clusters of nearby deltas with occasional jumps.
std::vector<Duration> deltaSchedule(std::size_t N, Duration Horizon) {
  std::vector<Duration> Deltas;
  Deltas.reserve(N);
  std::uint64_t X = 0x9E3779B97F4A7C15ull;
  Duration Base = 1;
  for (std::size_t I = 0; I < N; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    if (I % 64 == 0)
      Base = 1 + X % Horizon;
    Deltas.push_back(1 + (Base + X % (Horizon / 64)) % Horizon);
  }
  return Deltas;
}

/// Evaluations per second of \p Eval over the schedule; the checksum
/// both defeats dead-code elimination and proves the three paths
/// computed the same values.
template <typename EvalT>
double throughputPerSec(const EvalT &Eval,
                        const std::vector<Duration> &Deltas, int Reps,
                        std::uint64_t &Checksum) {
  std::uint64_t Sum = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (int R = 0; R < Reps; ++R)
    for (Duration D : Deltas)
      Sum += Eval.eval(D);
  double Ms = msSince(T0);
  Checksum = Sum;
  return Ms > 0 ? (1000.0 * Reps * Deltas.size()) / Ms : 0;
}

/// The 10k-point neighbor grid: one shared task set whose WCETs drift
/// upward in small steps — the sensitivity-search shape.
std::vector<SweepPoint> neighborGrid(std::size_t N) {
  TaskSet Base;
  Base.addTask("ctrl", 1 * TickUs, 3,
               std::make_shared<PeriodicCurve>(10 * TickUs));
  Base.addTask("sensor", 800 * TickNs, 2,
               std::make_shared<LeakyBucketCurve>(3, 20 * TickUs));
  Base.addTask("log", 4 * TickUs, 1,
               std::make_shared<PeriodicCurve>(80 * TickUs));

  std::vector<SweepPoint> Points;
  Points.reserve(N);
  for (std::size_t I = 0; I < N; ++I) {
    SweepPoint P;
    for (const Task &T : Base.tasks())
      P.Tasks.addTask(T.Name, T.Wcet + (I / 100) * TickNs, T.Prio, T.Curve,
                      T.Deadline);
    P.Cfg.FixedPointCap = 1 * TickSec;
    P.Sbf.Wcets = BasicActionWcets::typicalDeployment();
    P.Sbf.NumSockets = 1 + static_cast<std::uint32_t>(I % 4);
    P.Policy = SchedPolicy::Npfp;
    Points.push_back(std::move(P));
  }
  return Points;
}

struct SweepRun {
  double Ms = 0;
  std::string Json;     ///< Plain rendering — the byte-compare currency.
  std::string TelJson;  ///< Telemetry-wrapped rendering (3-arg overload).
  FixpointCounts Counts;
};

SweepRun runSweep(const std::vector<SweepPoint> &Points, unsigned Threads,
                  std::size_t Chunk, bool Warm) {
  SweepOptions Opts;
  Opts.Threads = Threads;
  Opts.ChunkSize = Chunk;
  SweepRunner Runner(Opts);
  std::vector<SweepPoint> Local = Points;
  for (SweepPoint &P : Local)
    P.Cfg.WarmIntraPoint = Warm;
  auto T0 = std::chrono::steady_clock::now();
  std::vector<RtaResult> Results = Runner.run(Local);
  SweepRun Out;
  Out.Ms = msSince(T0);
  Out.Json = sweepResultsJson(Local, Results);
  Out.TelJson = sweepResultsJson(Local, Results, Runner.telemetry());
  Out.Counts = Runner.telemetry().Fixpoints;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::printf("=== E21: hot-path kernels — flat curves, warm starts, "
              "chunked sweeps ===\n\n");

  bool Smoke = envFlag("RPROSA_BENCH_SMOKE");
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  unsigned Threads = threadsFromArgs(argc, argv);
  std::size_t Chunk = chunkFromArgs(argc, argv);
  bool Ok = true;

  // 1. Single-point curve evaluation: virtual vs memo vs flat.
  ArrivalCurvePtr Virt = nestedCurve();
  auto Memo = std::make_shared<MemoCurve>(Virt);
  Duration Horizon = 100 * TickUs;
  FlatCurveTable Flat(Virt, Horizon);
  std::vector<Duration> Deltas = deltaSchedule(Smoke ? 20000 : 200000,
                                               2 * Horizon);
  int Reps = Smoke ? 3 : 10;

  std::uint64_t CkVirt = 0, CkMemo = 0, CkFlat = 0;
  double VirtPerSec = throughputPerSec(*Virt, Deltas, Reps, CkVirt);
  // One warm-up pass so the memo measures steady-state hits, its
  // favorable regime.
  for (Duration D : Deltas)
    (void)Memo->eval(D);
  double MemoPerSec = throughputPerSec(*Memo, Deltas, Reps, CkMemo);
  double FlatPerSec = throughputPerSec(Flat, Deltas, Reps, CkFlat);
  bool ChecksumsAgree = CkVirt == CkMemo && CkMemo == CkFlat;
  double FlatVsMemo = MemoPerSec > 0 ? FlatPerSec / MemoPerSec : 0;
  std::printf("curve eval (%zu deltas x %d reps):\n", Deltas.size(), Reps);
  std::printf("  virtual tree   %12.0f evals/s\n", VirtPerSec);
  std::printf("  MemoCurve      %12.0f evals/s (steady-state hits)\n",
              MemoPerSec);
  std::printf("  FlatCurveTable %12.0f evals/s -> %.1fx over memo; "
              "checksums %s\n\n",
              FlatPerSec, FlatVsMemo,
              ChecksumsAgree ? "identical" : "DIFFER");
  if (!ChecksumsAgree) {
    std::printf("E21 FAILED: eval paths disagree\n");
    Ok = false;
  }
  if (FlatVsMemo < 3.0) {
    std::printf("E21 FAILED: flat eval only %.2fx over MemoCurve "
                "(>= 3x required)\n",
                FlatVsMemo);
    Ok = false;
  }

  // 2. Warm vs cold fixpoint iterations on the neighbor grid.
  std::size_t GridN = Smoke ? 1000 : 10000;
  std::vector<SweepPoint> Grid = neighborGrid(GridN);
  SweepRun Cold = runSweep(Grid, 1, Chunk, /*Warm=*/false);
  SweepRun Warm = runSweep(Grid, 1, Chunk, /*Warm=*/true);
  std::uint64_t ColdIters = Cold.Counts.Iterations +
                            Cold.Counts.SupplyIterations;
  std::uint64_t WarmIters = Warm.Counts.Iterations +
                            Warm.Counts.SupplyIterations;
  double SavedPct = ColdIters > 0
                        ? 100.0 * (ColdIters - WarmIters) / ColdIters
                        : 0;
  bool WarmBytesEqual = Cold.Json == Warm.Json;
  // The telemetry wrap is the perf-triage surface: it must embed the
  // byte-stable results verbatim (telemetry differs warm vs cold by
  // design, so the equality gate stays on the plain form).
  bool TelWrapsPlain =
      Warm.TelJson.find(Cold.Json.substr(0, Cold.Json.size() - 1)) !=
      std::string::npos;
  std::printf("warm starts (%zu-point neighbor grid, 1 thread):\n", GridN);
  std::printf("  cold %llu iterations (%.1f ms), warm %llu (%.1f ms) "
              "-> %.1f%% saved, %llu seeded; results %s\n",
              static_cast<unsigned long long>(ColdIters), Cold.Ms,
              static_cast<unsigned long long>(WarmIters), Warm.Ms,
              SavedPct,
              static_cast<unsigned long long>(Warm.Counts.Seeded),
              WarmBytesEqual ? "byte-identical" : "DIFFER");
  std::printf("  supply memo: %llu hits / %llu misses\n\n",
              static_cast<unsigned long long>(Warm.Counts.SupplyMemoHits),
              static_cast<unsigned long long>(Warm.Counts.SupplyMemoMisses));
  if (!WarmBytesEqual) {
    std::printf("E21 FAILED: warm-started sweep diverged from cold\n");
    Ok = false;
  }
  if (!TelWrapsPlain) {
    std::printf("E21 FAILED: telemetry JSON does not embed the plain "
                "results rendering\n");
    Ok = false;
  }
  if (SavedPct < 30.0) {
    std::printf("E21 FAILED: warm starts saved only %.1f%% of fixpoint "
                "iterations (>= 30%% required)\n",
                SavedPct);
    Ok = false;
  }

  // 3. Serial vs parallel sweep wall-clock at three batch scales.
  std::vector<std::size_t> Scales = {3, 48, GridN};
  std::vector<double> SerialMs(Scales.size()), ParallelMs(Scales.size());
  for (std::size_t S = 0; S < Scales.size(); ++S) {
    std::vector<SweepPoint> Pts = neighborGrid(Scales[S]);
    SweepRun Ser = runSweep(Pts, 1, Chunk, true);
    SweepRun Par = runSweep(Pts, Threads, Chunk, true);
    SerialMs[S] = Ser.Ms;
    ParallelMs[S] = Par.Ms;
    bool Same = Ser.Json == Par.Json;
    std::printf("sweep %6zu points: serial %8.1f ms, parallel %8.1f ms "
                "(%u threads) -> %.2fx; results %s\n",
                Scales[S], Ser.Ms, Par.Ms, Threads ? Threads : 0,
                Par.Ms > 0 ? Ser.Ms / Par.Ms : 0,
                Same ? "identical" : "DIFFER");
    if (!Same) {
      std::printf("E21 FAILED: parallel sweep diverged at %zu points\n",
                  Scales[S]);
      Ok = false;
    }
  }

  std::FILE *F = std::fopen("BENCH_hotpath.json", "w");
  if (F) {
    std::fprintf(
        F,
        "{\n"
        "  \"experiment\": \"E21\",\n"
        "  \"eval_virtual_per_sec\": %.0f,\n"
        "  \"eval_memo_per_sec\": %.0f,\n"
        "  \"eval_flat_per_sec\": %.0f,\n"
        "  \"flat_vs_memo\": %.3f,\n"
        "  \"grid_points\": %zu,\n"
        "  \"cold_iterations\": %llu,\n"
        "  \"warm_iterations\": %llu,\n"
        "  \"warm_saved_pct\": %.2f,\n"
        "  \"warm_seeded\": %llu,\n"
        "  \"warm_byte_identical\": %s,\n"
        "  \"supply_memo_hits\": %llu,\n"
        "  \"supply_memo_misses\": %llu,\n"
        "  \"sweep_points\": [%zu, %zu, %zu],\n"
        "  \"sweep_serial_ms\": [%.3f, %.3f, %.3f],\n"
        "  \"sweep_parallel_ms\": [%.3f, %.3f, %.3f]\n"
        "}\n",
        VirtPerSec, MemoPerSec, FlatPerSec, FlatVsMemo, GridN,
        static_cast<unsigned long long>(ColdIters),
        static_cast<unsigned long long>(WarmIters), SavedPct,
        static_cast<unsigned long long>(Warm.Counts.Seeded),
        WarmBytesEqual ? "true" : "false",
        static_cast<unsigned long long>(Warm.Counts.SupplyMemoHits),
        static_cast<unsigned long long>(Warm.Counts.SupplyMemoMisses),
        Scales[0],
        Scales[1], Scales[2], SerialMs[0], SerialMs[1], SerialMs[2], ParallelMs[0],
        ParallelMs[1], ParallelMs[2]);
    std::fclose(F);
    std::printf("\nwrote BENCH_hotpath.json\n");
  }

  if (!Ok)
    return 1;
  std::printf("E21 reproduced: flat kernels %.1fx over memo, warm "
              "starts save %.1f%% of iterations, byte-identical "
              "throughout.\n",
              FlatVsMemo, SavedPct);
  return 0;
}
