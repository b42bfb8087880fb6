//===- bench/stream_horizon.cpp - Experiment E19: streaming memory --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory story of the streaming refactor (DESIGN.md §9): peak RSS
/// and marker throughput of the single-pass adequacy pipeline
/// (runAdequacyStreaming) against the capturing run (runAdequacy: the
/// same driver plus sinks that materialize the trace and the
/// conversion; its rows are labelled "batch") at horizons spanning two
/// orders of magnitude.
///
/// Gates:
///  1. the two runs render byte-identical reports at the smallest
///     horizon, i.e. the capture sinks leave the report unchanged (the
///     comparison against the independent reference implementations
///     lives in tests/stream_equivalence_test.cpp);
///  2. the streaming pipeline's peak RSS stays FLAT across the 100x
///     horizon increase (<= 32 MiB of drift allowed), while the
///     capturing run's grows with the trace — the point of the refactor.
///
/// Horizons are marker counts (RunLimits::MaxMarkers) over a fixed
/// arrival prefix, so memory growth isolates the pipeline's own state.
/// Default max horizon is 1e7 markers (1e6 under RPROSA_BENCH_SMOKE);
/// RPROSA_STREAM_MAX_EVENTS overrides it (e.g. 100000000 for the 1e8
/// point on a large machine — streaming only, batch is capped at 1e7).
///
/// Peak RSS per phase: VmHWM from /proc/self/status, reset by writing
/// "5" to /proc/self/clear_refs before each phase; malloc_trim(0)
/// between phases returns freed arena pages to the OS so one phase's
/// residue does not inflate the next phase's watermark. On systems
/// without these interfaces the RSS gate reports "skipped".
///
/// Emits BENCH_stream_horizon.json.
///
//===----------------------------------------------------------------------===//

#include "adequacy/pipeline.h"
#include "adequacy/report.h"
#include "sim/workload.h"
#include "support/parallel.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace rprosa;

namespace {

/// VmHWM (peak resident set) in KiB; 0 when /proc is unavailable.
std::size_t vmHwmKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  return 0;
}

/// Resets VmHWM to the current RSS (Linux >= 4.0). Returns false when
/// the interface is missing, in which case the RSS gate is skipped.
bool resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  if (!Out)
    return false;
  Out << "5\n";
  return Out.good();
}

/// Returns freed heap pages to the OS so the next phase's watermark
/// starts from a clean floor.
void trimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// The benchmark system: a small two-task client on two sockets with a
/// BOUNDED arrival prefix. Past the prefix the scheduler keeps polling
/// and idling, so the marker count — and with it the captured trace —
/// scales with MaxMarkers while the workload stays fixed.
AdequacySpec makeSpec(std::size_t MaxMarkers) {
  AdequacySpec Spec;
  Spec.Client.Tasks.addTask("pulse", 40, 2,
                            std::make_shared<PeriodicCurve>(2000));
  Spec.Client.Tasks.addTask("burst", 25, 1,
                            std::make_shared<LeakyBucketCurve>(2, 1500));
  Spec.Client.NumSockets = 2;
  BasicActionWcets W;
  W.FailedRead = 4;
  W.SuccessfulRead = 10;
  W.Selection = 3;
  W.Dispatch = 2;
  W.Completion = 5;
  W.Idling = 8;
  Spec.Client.Wcets = W;
  WorkloadSpec WS;
  WS.NumSockets = 2;
  WS.Horizon = 40000;
  WS.Style = WorkloadStyle::GreedyDense;
  Spec.Arr = generateWorkload(Spec.Client.Tasks, WS);
  Spec.Limits.Horizon = 1000000000000ull; // markers are the limit
  Spec.Limits.MaxMarkers = MaxMarkers;
  return Spec;
}

struct Phase {
  std::size_t Target = 0; ///< Requested MaxMarkers.
  std::size_t Events = 0; ///< Markers actually produced.
  double Ms = 0;
  double EventsPerSec = 0;
  std::size_t PeakKb = 0;
};

Phase runPhase(std::size_t Target, bool CanResetRss,
               const std::function<AdequacyReport(const AdequacySpec &)>
                   &Pipeline) {
  trimHeap();
  if (CanResetRss)
    resetPeakRss();
  AdequacySpec Spec = makeSpec(Target);
  auto T0 = std::chrono::steady_clock::now();
  AdequacyReport Rep = Pipeline(Spec);
  auto T1 = std::chrono::steady_clock::now();
  Phase P;
  P.Target = Target;
  P.Events = Rep.Markers;
  P.Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
  P.EventsPerSec = P.Ms > 0 ? 1000.0 * double(P.Events) / P.Ms : 0;
  P.PeakKb = vmHwmKb(); // Peak *during* this phase (reset above).
  return P;
}

void printPhase(const char *Which, const Phase &P) {
  std::printf("  %-9s %10zu markers  %9.1f ms  %7.2f Mmarkers/s  "
              "peak %8zu KiB\n",
              Which, P.Events, P.Ms, P.EventsPerSec / 1e6, P.PeakKb);
}

std::string phasesJson(const std::vector<Phase> &Ps) {
  std::string S = "[";
  for (std::size_t I = 0; I < Ps.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n    {\"events\": %zu, \"ms\": %.3f, "
                  "\"events_per_sec\": %.0f, \"peak_kb\": %zu}",
                  I ? "," : "", Ps[I].Events, Ps[I].Ms, Ps[I].EventsPerSec,
                  Ps[I].PeakKb);
    S += Buf;
  }
  return S + "\n  ]";
}

} // namespace

int main() {
  std::printf("=== E19: streaming vs batch pipeline at growing "
              "horizons ===\n\n");

  const bool Smoke = envFlag("RPROSA_BENCH_SMOKE");
  std::size_t MaxEvents = Smoke ? 1000000 : 10000000;
  if (const char *Cap = std::getenv("RPROSA_STREAM_MAX_EVENTS"))
    if (std::size_t V = std::strtoull(Cap, nullptr, 10))
      MaxEvents = V;
  // The capturing run keeps ~90 B/marker; keep it off the 1e8 points.
  const std::size_t BatchMax = std::min<std::size_t>(MaxEvents, 10000000);
  const std::vector<std::size_t> Horizons = {MaxEvents / 100,
                                             MaxEvents / 10, MaxEvents};

  const bool CanResetRss = resetPeakRss();
  if (!CanResetRss)
    std::printf("note: /proc/self/clear_refs unavailable; the peak-RSS "
                "gate is skipped on this system\n\n");

  // Gate 1: byte-identical reports at the smallest horizon (capturing
  // must not change the report).
  AdequacySpec EqSpec = makeSpec(Horizons.front());
  const std::string BatchSummary = runAdequacy(EqSpec).summary();
  const std::string StreamSummary = runAdequacyStreaming(EqSpec).summary();
  const bool Identical = BatchSummary == StreamSummary;
  std::printf("report equivalence at %zu markers: %s\n\n",
              Horizons.front(),
              Identical ? "byte-identical" : "MISMATCH (streaming bug)");

  // Streaming phases first, on a freshly trimmed heap.
  std::printf("streaming pipeline (runAdequacyStreaming):\n");
  std::vector<Phase> Stream;
  for (std::size_t H : Horizons) {
    Stream.push_back(runPhase(H, CanResetRss, runAdequacyStreaming));
    printPhase("stream", Stream.back());
  }

  std::printf("\nbatch pipeline (runAdequacy, materialized trace):\n");
  std::vector<Phase> Batch;
  for (std::size_t H : Horizons) {
    if (H > BatchMax) {
      std::printf("  batch     %10zu markers  skipped (above batch cap "
                  "%zu)\n",
                  H, BatchMax);
      continue;
    }
    Batch.push_back(runPhase(H, CanResetRss, runAdequacy));
    printPhase("batch", Batch.back());
  }

  // Gate 2: the streaming peak is flat across the 100x span.
  bool StreamFlat = true;
  if (CanResetRss) {
    const std::size_t Lo = Stream.front().PeakKb;
    const std::size_t Hi = Stream.back().PeakKb;
    StreamFlat = Hi <= Lo + 32 * 1024;
    std::printf("\nstreaming peak RSS across 100x horizons: %zu KiB -> "
                "%zu KiB (%s; <= 32 MiB drift allowed)\n",
                Lo, Hi, StreamFlat ? "flat" : "GROWING");
    if (Batch.size() >= 2)
      std::printf("batch peak RSS for comparison: %zu KiB -> %zu KiB "
                  "over %zux markers\n",
                  Batch.front().PeakKb, Batch.back().PeakKb,
                  Batch.back().Events / std::max<std::size_t>(
                                            1, Batch.front().Events));
  }

  std::FILE *F = std::fopen("BENCH_stream_horizon.json", "w");
  if (F) {
    std::fprintf(F,
                 "{\n"
                 "  \"experiment\": \"E19\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"reports_byte_identical\": %s,\n"
                 "  \"rss_gate\": \"%s\",\n"
                 "  \"streaming\": %s,\n"
                 "  \"batch\": %s\n"
                 "}\n",
                 Smoke ? "true" : "false", Identical ? "true" : "false",
                 !CanResetRss ? "skipped"
                              : (StreamFlat ? "flat" : "growing"),
                 phasesJson(Stream).c_str(), phasesJson(Batch).c_str());
    std::fclose(F);
    std::printf("\nwrote BENCH_stream_horizon.json\n");
  }

  if (!Identical) {
    std::printf("E19 FAILED: batch and streaming reports differ\n");
    return 1;
  }
  if (!StreamFlat) {
    std::printf("E19 FAILED: streaming peak RSS grew with the horizon\n");
    return 1;
  }
  std::printf("E19 reproduced: one pass, flat memory, identical "
              "reports.\n");
  return 0;
}
