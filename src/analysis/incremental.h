//===- analysis/incremental.h - Content-hash keyed re-analysis ------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental re-analysis for the editor/CI loop: the expensive passes
/// (the static segment-cost analysis of timing/segment_costs.h and the
/// unified dataflow lints of dataflow/analyses.h) are pure functions of
/// the program text and the analysis parameters, so their results can
/// be keyed by content and reused verbatim when a re-run asks the same
/// question. Two layers:
///
///  - AnalysisCache memoizes single (program, params) requests. Keys
///    are the *exact* canonical encoding — the caesium printer's
///    rendering of the program plus a field-by-field dump of the
///    parameters — so a hit can never be a collision; the 64-bit
///    FNV-1a fingerprint of that encoding is exposed only as a cheap
///    change detector and display handle. An optional cross-check mode
///    re-runs the analysis on every hit and asserts the rendered
///    results (describeTable / renderText) are byte-identical to the
///    cached copy, turning the purity assumption into an executable
///    check (incremental_test and bench/parse_cost's cross-check stage
///    run with it on).
///
///  - WorkspaceAnalyzer holds a set of named per-task program slices
///    (source text, not ASTs) and re-analyzes only the slices whose
///    content hash changed since the previous round: an edit to one
///    task's slice re-parses and re-analyzes that slice alone, while
///    every other slice's WCET intervals and lint findings come back
///    from the cache — the single-task-edit loop bench/parse_cost
///    gates at >= 3x (E24). sweepPointsFor packages the cached
///    per-slice WCET intervals as SweepRunner points, so a response
///    -time sweep over an edited workspace reuses every unchanged
///    slice's derived tables.
///
/// Thread-safety: AnalysisCache is internally locked (rp_verify's
/// timing sweep calls it from pool workers); WorkspaceAnalyzer is
/// single-threaded — it owns the arena its slices parse into.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_INCREMENTAL_H
#define RPROSA_ANALYSIS_INCREMENTAL_H

#include "analysis/dataflow/analyses.h"
#include "analysis/timing/segment_costs.h"

#include "caesium/ast.h"
#include "rta/sweep.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rprosa::analysis {

/// 64-bit FNV-1a over \p Bytes, continuing from \p H (chain calls to
/// hash multi-part content).
std::uint64_t fnv1a64(std::string_view Bytes,
                      std::uint64_t H = 14695981039346656037ull);

/// The canonical cache key of one timing request: the printed program
/// plus every StaticCostParams field, the register bound in use and
/// the socket count. Exact — two requests with equal keys are the same
/// analysis question.
std::string timingCacheKey(const caesium::StmtPtr &Program,
                           const StaticCostParams &P,
                           std::uint32_t NumSockets);

/// Likewise for one unified-lint request.
std::string lintCacheKey(const caesium::StmtPtr &Program,
                         const dataflow::AnalysisOptions &Opts);

/// Cache effectiveness counters (monotone; never influence results).
struct IncrementalStats {
  std::size_t TimingHits = 0;
  std::size_t TimingMisses = 0;
  std::size_t LintHits = 0;
  std::size_t LintMisses = 0;
  /// Cross-check re-analyses performed (and passed — a failing check
  /// aborts).
  std::size_t CrossChecks = 0;
};

/// Content-keyed memo of the timing and lint passes. Results returned
/// on a hit are copies of the first computation, so downstream
/// rendering is byte-identical to a cold run by construction — and
/// asserted, under CrossCheck.
class AnalysisCache {
public:
  struct Options {
    /// Re-run every hit and assert byte-identical rendered results.
    bool CrossCheck = false;
  };

  AnalysisCache() = default;
  explicit AnalysisCache(Options O) : Opt(O) {}

  /// analyzeTiming(buildCfg(Program), P, NumSockets), memoized.
  TimingResult timing(const caesium::StmtPtr &Program,
                      const StaticCostParams &P, std::uint32_t NumSockets,
                      bool *Hit = nullptr);

  /// runUnifiedAnalyses(buildCfg(Program), Opts), memoized.
  std::vector<dataflow::Finding> lint(const caesium::StmtPtr &Program,
                                      const dataflow::AnalysisOptions &Opts,
                                      bool *Hit = nullptr);

  IncrementalStats stats() const;

private:
  Options Opt;
  mutable std::mutex M;
  std::unordered_map<std::string, TimingResult> TimingMap;
  std::unordered_map<std::string, std::vector<dataflow::Finding>> LintMap;
  IncrementalStats St;
};

/// One named slice of a workspace: a Rössl program as source text,
/// analyzed at a given socket count. (The slices of a deployment are
/// typically the per-task scheduler variants its build produces.)
struct TaskSlice {
  std::string Name;
  std::string Source;
  std::uint32_t NumSockets = 1;
};

/// What one round of WorkspaceAnalyzer::analyze reports per slice.
struct SliceAnalysis {
  std::string Name;
  /// FNV-1a fingerprint of (source, params) — the change detector.
  std::uint64_t Fingerprint = 0;
  /// Both passes answered from cache (an unchanged slice).
  bool Reused = false;
  bool ParseOk = false;
  /// renderParseError-style caret snippet when !ParseOk.
  std::string ParseError;
  TimingResult Timing;
  std::vector<dataflow::Finding> Lint;
};

/// Re-analyzes a workspace of slices, reusing every slice whose
/// content is unchanged. Parsed ASTs live in an internal arena for the
/// analyzer's lifetime, so cached results never dangle.
class WorkspaceAnalyzer {
public:
  explicit WorkspaceAnalyzer(StaticCostParams P,
                             AnalysisCache::Options O = AnalysisCache::Options())
      : Params(P), Cache(O) {}

  /// Analyzes every slice (results in input order). A slice that fails
  /// to parse reports ParseOk = false and zeroed results; it occupies
  /// no cache space.
  std::vector<SliceAnalysis> analyze(const std::vector<TaskSlice> &Slices);

  AnalysisCache &cache() { return Cache; }

  /// Packages each successfully analyzed slice as one SweepRunner
  /// point: \p Tasks under \p Cfg with the slice's *derived* WCET
  /// table (TimingResult::effectiveWcets over \p HandWcets) and its
  /// callback WCETs inflated by the Execution segment's instruction
  /// tail (toRtaInputs) — the cached per-task WCET intervals feeding
  /// the response-time sweep directly.
  std::vector<SweepPoint> sweepPointsFor(
      const std::vector<SliceAnalysis> &Results, const TaskSet &Tasks,
      const RtaConfig &Cfg, const BasicActionWcets &HandWcets) const;

private:
  StaticCostParams Params;
  AnalysisCache Cache;
  caesium::AstArena Arena;
  /// source-fingerprint -> parsed program (in Arena); skips the
  /// re-parse for unchanged slices.
  std::unordered_map<std::string, caesium::StmtPtr> Parsed;
};

} // namespace rprosa::analysis

#endif // RPROSA_ANALYSIS_INCREMENTAL_H
