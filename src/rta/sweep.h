//===- rta/sweep.h - Parallel batch evaluation of RTA points --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel sweep engine: every large-scale workload in this repo —
/// acceptance-ratio studies, socket sweeps, sensitivity searches, the
/// capacity planner — is "evaluate many independent RTA points". A
/// SweepPoint names one point: a task set, the analysis knobs, and the
/// supply parameters the SBF is built from (SbfParams). SweepRunner
/// evaluates a vector of points concurrently on a ThreadPool and
/// returns the results *in input order*.
///
/// Determinism contract (asserted byte-for-byte by sweep_test and the
/// sweep_parallel bench): the analysis of a point is a pure function of
/// the point, so a run with T threads returns exactly the results of a
/// run with 1 thread — same values, same order, same rendered JSON.
/// Nothing downstream may depend on completion order.
///
/// Points share nothing: each point's analysis compiles its own
/// FlatReleaseSet (core/curve_table.h) and builds its own supply, and
/// every fixpoint starts from its own point's data (the intra-point
/// seeds of RtaConfig::WarmIntraPoint). A curve with a certified
/// periodic tail (every curve outside the tests) compiles in a few
/// dozen evaluations, so a cache shared across points would save less
/// than its locks cost.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_RTA_SWEEP_H
#define RPROSA_RTA_SWEEP_H

#include "rta/rta_policies.h"

#include "support/parallel.h"

#include <atomic>
#include <cstdint>

namespace rprosa {

/// The parameters the supply bound function of one point is built from
/// (§4.4): the basic-action WCET table and the socket count that scale
/// PB/RB. (The release curves it also needs come from the point's task
/// set plus the jitter these parameters induce.)
struct SbfParams {
  BasicActionWcets Wcets;
  std::uint32_t NumSockets = 1;
};

/// One point of a sweep: analyze \p Tasks under \p Policy with the
/// given config and supply parameters.
struct SweepPoint {
  TaskSet Tasks;
  RtaConfig Cfg;
  SbfParams Sbf;
  SchedPolicy Policy = SchedPolicy::Npfp;
};

/// Tuning of a SweepRunner.
struct SweepOptions {
  /// Total parallelism; 0 = defaultParallelism(), 1 = fully serial (the
  /// benches' --serial escape hatch).
  unsigned Threads = 0;
  /// Contiguous indices handed to a lane per claim; 0 derives
  /// ThreadPool::chunkSize's default. Benches expose it as --chunk=N.
  std::size_t ChunkSize = 0;
};

/// Everything a sweep can report about how it ran (as opposed to what
/// it computed): rendered into the optional "telemetry" block of
/// sweepResultsJson. Results never depend on any of it.
struct SweepTelemetry {
  /// The supply memo's totals, copied from Fixpoints.SupplyMemoHits and
  /// .SupplyMemoMisses (see RosslSupply::setTelemetry).
  struct {
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
  } Cache;
  FixpointCounts Fixpoints;
  unsigned Threads = 0;
  std::size_t ChunkSize = 0;
};

/// Evaluates batches of SweepPoints concurrently with deterministic,
/// input-ordered results. Reusable: consecutive run() calls share the
/// pool.
class SweepRunner {
public:
  explicit SweepRunner(SweepOptions Opts = {});

  /// Analyzes every point; Result[i] is the analysis of Points[i].
  std::vector<RtaResult> run(const std::vector<SweepPoint> &Points);

  /// Convenience: allBounded() per point (the acceptance-study shape).
  std::vector<char> runSchedulable(const std::vector<SweepPoint> &Points);

  unsigned threads() const { return Pool.threads(); }
  ThreadPool &pool() { return Pool; }

  /// Snapshot of the fixpoint and supply-memo counters, accumulated
  /// since the last resetTelemetry(). ChunkSize is the chunk of the
  /// latest run().
  SweepTelemetry telemetry() const;
  void resetTelemetry() { Tel.reset(); }

private:
  SweepOptions Opts;
  ThreadPool Pool;
  FixpointTelemetry Tel;
  /// Chunk size of the latest run(). Atomic because telemetry() is
  /// documented as callable while a run() is in flight on another
  /// thread (the monitor-thread pattern); relaxed is enough — the
  /// reader sees either the previous or the current run's chunk.
  std::atomic<std::size_t> LastChunk{0};
};

/// Renders sweep results as canonical JSON (one object per point, in
/// input order, LF line endings, no locale-dependent formatting). The
/// byte-identity contract between serial and parallel runs is stated —
/// and tested — over this rendering.
std::string sweepResultsJson(const std::vector<SweepPoint> &Points,
                             const std::vector<RtaResult> &Results);

/// The telemetry-carrying rendering: {"results": <plain form>,
/// "telemetry": {...}}. The "results" value is byte-identical to the
/// two-argument overload; the telemetry block (supply-memo hits,
/// fixpoint iteration counts, thread/chunk shape) names the thread
/// count and the chunk it sets by default, so byte-identity gates
/// compare the plain form.
std::string sweepResultsJson(const std::vector<SweepPoint> &Points,
                             const std::vector<RtaResult> &Results,
                             const SweepTelemetry &Tel);

} // namespace rprosa

#endif // RPROSA_RTA_SWEEP_H
