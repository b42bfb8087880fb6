//===- rta/sweep.cpp ------------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "rta/sweep.h"

#include <cstdio>

using namespace rprosa;

//===----------------------------------------------------------------------===//
// SweepRunner
//===----------------------------------------------------------------------===//

SweepRunner::SweepRunner(SweepOptions O) : Opts(O), Pool(O.Threads) {}

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
  const std::size_t C = Pool.chunkSize(N, Opts.ChunkSize);
  LastChunk.store(C, std::memory_order_relaxed);

  // Each body invocation writes only its own index-addressed slot; the
  // result vector is sized up front so no reallocation races exist.
  // This is the whole determinism argument: Results[i] depends only on
  // Points[i], never on scheduling.
  std::vector<RtaResult> Results(N);
  Pool.parallelForChunked(N, C, [&](std::size_t I) {
    const SweepPoint &P = Points[I];
    RtaConfig Cfg = P.Cfg;
    Cfg.Telemetry = &Tel;
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
