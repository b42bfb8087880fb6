//===- rta/sweep.cpp ------------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/sweep.h"

#include <algorithm>
#include <cstdio>

using namespace rprosa;

//===----------------------------------------------------------------------===//
// SweepRunner
//===----------------------------------------------------------------------===//

SweepRunner::SweepRunner(SweepOptions O) : Opts(O), Pool(O.Threads) {}

bool SweepRunner::canSeed(const SweepPoint &From, const SweepPoint &To) {
  if (From.Policy != To.Policy)
    return false;
  // Semantic knobs must match exactly; the acceleration/observability
  // fields of RtaConfig (Warm, WarmIntraPoint, Telemetry) never change
  // results and are deliberately ignored.
  const RtaConfig &A = From.Cfg, &B = To.Cfg;
  if (A.FixedPointCap != B.FixedPointCap ||
      A.AccountOverheads != B.AccountOverheads ||
      A.AblateCarryIn != B.AblateCarryIn ||
      A.BlockingMinusOne != B.BlockingMinusOne)
    return false;
  // Identical task structure: curve object identity (not equivalence —
  // identity is what the sweeps actually share), priorities and
  // deadlines exactly (EDF demand is *anti*tone in the interferer's
  // deadline, so ≤ would be unsound there), WCETs fieldwise ≤.
  const std::vector<Task> &FT = From.Tasks.tasks();
  const std::vector<Task> &TT = To.Tasks.tasks();
  if (FT.size() != TT.size())
    return false;
  for (std::size_t K = 0; K < FT.size(); ++K)
    if (FT[K].Curve.get() != TT[K].Curve.get() ||
        FT[K].Prio != TT[K].Prio || FT[K].Deadline != TT[K].Deadline ||
        FT[K].Wcet > TT[K].Wcet)
      return false;
  // Supply parameters fieldwise ≤: overhead bounds, and through them
  // jitter and blackout, are monotone in every WCET field and in the
  // socket count — so From's least fixpoints are ≤ To's.
  if (From.Sbf.NumSockets > To.Sbf.NumSockets)
    return false;
  const BasicActionWcets &FW = From.Sbf.Wcets, &TW = To.Sbf.Wcets;
  return FW.FailedRead <= TW.FailedRead &&
         FW.SuccessfulRead <= TW.SuccessfulRead &&
         FW.Selection <= TW.Selection && FW.Dispatch <= TW.Dispatch &&
         FW.Completion <= TW.Completion && FW.Idling <= TW.Idling;
}

SweepTelemetry SweepRunner::telemetry() const {
  SweepTelemetry T;
  T.Fixpoints = Tel.snapshot();
  T.Cache.Hits = T.Fixpoints.SupplyMemoHits;
  T.Cache.Misses = T.Fixpoints.SupplyMemoMisses;
  T.Threads = Pool.threads();
  T.ChunkSize = LastChunk.load(std::memory_order_relaxed);
  return T;
}

std::vector<RtaResult> SweepRunner::run(const std::vector<SweepPoint> &Points) {
  const std::size_t N = Points.size();
  // The chunk size must be fixed here (not inside the pool): the
  // warm-start plan below is only sound within the chunk boundaries the
  // pool will actually use.
  const std::size_t C = Pool.chunkSize(N, Opts.ChunkSize);
  LastChunk.store(C, std::memory_order_relaxed);

  // Warm-start plan: Seed[I] is the nearest earlier point in I's chunk
  // whose demand is dominated by I's, or npos. A chunk is processed in
  // ascending index order by a single lane, so Results[Seed[I]] is
  // always complete before point I starts; seeding never crosses a
  // chunk boundary because other chunks may still be in flight. The
  // plan is a pure function of (Points, C) — independent of the thread
  // count — and, since warm == cold by the least-fixpoint argument,
  // results are byte-identical with seeding on or off.
  constexpr std::size_t Npos = static_cast<std::size_t>(-1);
  constexpr std::size_t SeedWindow = 4; // How far back to scan.
  std::vector<std::size_t> Seed;
  if (Opts.WarmStarts) {
    Seed.assign(N, Npos);
    for (std::size_t I = 0; I < N; ++I) {
      std::size_t ChunkStart = (I / C) * C;
      std::size_t Lo = std::max(ChunkStart,
                                I >= SeedWindow ? I - SeedWindow : 0);
      for (std::size_t J = I; J > Lo;) {
        --J;
        if (canSeed(Points[J], Points[I])) {
          Seed[I] = J;
          break;
        }
      }
    }
  }

  // Each body invocation writes only its own index-addressed slot; the
  // result vector is sized up front so no reallocation races exist.
  // This is the whole determinism argument: Results[i] depends only on
  // Points[i] (plus a seed that provably cannot change the value),
  // never on scheduling.
  std::vector<RtaResult> Results(N);
  Pool.parallelForChunked(N, C, [&](std::size_t I) {
    const SweepPoint &P = Points[I];
    RtaConfig Cfg = P.Cfg;
    Cfg.Telemetry = &Tel;
    WarmStart W;
    if (!Seed.empty() && Seed[I] != Npos) {
      W = warmStartFrom(Results[Seed[I]]);
      if (!W.empty())
        Cfg.Warm = &W;
    }
    Results[I] = analyzePolicy(P.Tasks, P.Sbf.Wcets, P.Sbf.NumSockets,
                               P.Policy, Cfg);
  });
  return Results;
}

std::vector<char>
SweepRunner::runSchedulable(const std::vector<SweepPoint> &Points) {
  std::vector<RtaResult> R = run(Points);
  std::vector<char> Out(R.size());
  for (std::size_t I = 0; I < R.size(); ++I)
    Out[I] = R[I].allBounded() ? 1 : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// Canonical JSON rendering
//===----------------------------------------------------------------------===//

namespace {

void appendU64(std::string &Out, std::uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(V));
  Out += Buf;
}

} // namespace

std::string rprosa::sweepResultsJson(const std::vector<SweepPoint> &Points,
                                     const std::vector<RtaResult> &Results) {
  RPROSA_CHECK(Points.size() == Results.size(),
               "one result per sweep point expected");
  std::string Out = "[\n";
  for (std::size_t I = 0; I < Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    const RtaResult &R = Results[I];
    Out += "  {\"point\": ";
    appendU64(Out, I);
    Out += ", \"policy\": \"" + toString(P.Policy) + "\"";
    Out += ", \"sockets\": ";
    appendU64(Out, P.Sbf.NumSockets);
    Out += ", \"schedulable\": ";
    Out += R.allBounded() ? "true" : "false";
    Out += ", \"tasks\": [";
    for (std::size_t K = 0; K < R.PerTask.size(); ++K) {
      const TaskRta &T = R.PerTask[K];
      if (K)
        Out += ", ";
      Out += "{\"task\": ";
      appendU64(Out, T.Task);
      Out += ", \"bounded\": ";
      Out += T.Bounded ? "true" : "false";
      Out += ", \"release_bound\": ";
      appendU64(Out, T.ReleaseRelativeBound);
      Out += ", \"jitter\": ";
      appendU64(Out, T.Jitter);
      Out += ", \"response_bound\": ";
      appendU64(Out, T.ResponseBound);
      Out += ", \"busy_window\": ";
      appendU64(Out, T.BusyWindow);
      Out += ", \"blocking\": ";
      appendU64(Out, T.Blocking);
      Out += "}";
    }
    Out += "]}";
    Out += (I + 1 < Points.size()) ? ",\n" : "\n";
  }
  Out += "]\n";
  return Out;
}

std::string rprosa::sweepResultsJson(const std::vector<SweepPoint> &Points,
                                     const std::vector<RtaResult> &Results,
                                     const SweepTelemetry &Tel) {
  // The "results" value embeds the plain rendering byte-for-byte (minus
  // its trailing newline), so the serial/parallel identity gates keep
  // holding over it even when telemetry legitimately differs.
  std::string Inner = sweepResultsJson(Points, Results);
  if (!Inner.empty() && Inner.back() == '\n')
    Inner.pop_back();
  std::string Out = "{\"results\": " + Inner + ",\n \"telemetry\": {";
  Out += "\"threads\": ";
  appendU64(Out, Tel.Threads);
  Out += ", \"chunk\": ";
  appendU64(Out, Tel.ChunkSize);
  Out += ", \"supply_memo_hits\": ";
  appendU64(Out, Tel.Cache.Hits);
  Out += ", \"supply_memo_misses\": ";
  appendU64(Out, Tel.Cache.Misses);
  Out += ", \"fixpoints\": ";
  appendU64(Out, Tel.Fixpoints.Fixpoints);
  Out += ", \"iterations\": ";
  appendU64(Out, Tel.Fixpoints.Iterations);
  Out += ", \"supply_iterations\": ";
  appendU64(Out, Tel.Fixpoints.SupplyIterations);
  Out += ", \"warm_seeded\": ";
  appendU64(Out, Tel.Fixpoints.Seeded);
  Out += "}}\n";
  return Out;
}
