//===- analysis/dataflow/analyses.h - The engine's analysis instances -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete dataflow analyses built on the worklist engine
/// (engine.h), each a Domain instance plus a deterministic reporting
/// sweep over the solved states:
///
///  - value-range (RangeDomain, interval.h): statically flags signed
///    overflow, division/modulo by zero, and out-of-range socket
///    indices — the exact defect classes the interpreter traps at
///    runtime (caesium/interp.h RuntimeTrap), with matching check-ids
///    so the mutant corpus cross-validates static verdict against
///    runtime trap literally;
///  - definite-init: may-uninitialised bit words over registers and
///    buffers; the engine-backed replacement for the per-use BFS the
///    def-before-use lint ran before (same findings, same order, one
///    fixpoint instead of O(uses) searches);
///  - dead-code: nodes no feasible path reaches (graph-unreachable or
///    interval-infeasible) and branches whose condition is constant;
///  - marker-discipline: a 2-bit may-open/may-closed protocol lattice
///    flagging an execution/completion marker reachable without a
///    preceding dispatch, or a dispatch that may overtake an open job
///    (surfaced through lint.h's lintMarkerDiscipline).
///
/// runUnifiedAnalyses composes all of them (plus the reachability
/// lints of lint.h) into one sorted Finding list — the payload of
/// `rp_verify --lint`.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_DATAFLOW_ANALYSES_H
#define RPROSA_ANALYSIS_DATAFLOW_ANALYSES_H

#include "analysis/dataflow/diagnostics.h"
#include "analysis/dataflow/engine.h"
#include "analysis/dataflow/interval.h"
#include "support/small_vec.h"

#include <vector>

namespace rprosa::analysis::dataflow {

struct AnalysisOptions {
  /// Width of the deployment's socket array; read indices outside
  /// [0, NumSockets) are flagged.
  std::uint32_t NumSockets = 2;
  SolveOptions Solve;
};

/// The value-range instance's full result (tests want the states, not
/// just the findings).
struct ValueRangeResult {
  std::vector<Finding> Findings; ///< Sorted (diagnostics.h order).
  bool Converged = false;
  std::uint64_t NodeVisits = 0;
  /// Interval state before each node (index = NodeId).
  std::vector<RangeState> In;
};

ValueRangeResult analyzeValueRanges(const Cfg &G,
                                    const AnalysisOptions &Opts = {});

/// Definite-init's may-uninitialised state: a set bit means "some path
/// reaches here with no write to that register / no fill of that buffer
/// yet". One bit per register, then one per buffer, 64 to a word; up to
/// 128 bits (the default machine's 8 registers and 4 buffers need 12)
/// are kept inline.
struct InitState {
  bool Reachable = false;
  SmallVec<std::uint64_t, 2> Unset;

  bool operator==(const InitState &O) const = default;
};

/// The engine Domain of analyzeDefiniteInit. Entry boundary: every
/// register and buffer unset. Joins are word-wise OR.
class InitDomain {
public:
  using State = InitState;

  InitDomain(std::uint32_t NumRegs, std::uint32_t NumBufs)
      : NumRegs(NumRegs), NumBufs(NumBufs) {}

  State bottom(const Cfg &) const { return {}; }
  State boundary(const Cfg &) const;
  bool join(State &Into, const State &From) const;
  void transfer(const Cfg &G, NodeId N, const State &In, State &Out) const;

  /// True iff \p S may reach here with register \p R unwritten.
  bool regUnset(const State &S, caesium::RegId R) const {
    return R < NumRegs && bit(S, R);
  }
  /// True iff \p S may reach here with buffer \p B unfilled.
  bool bufUnset(const State &S, caesium::BufId B) const {
    return B < NumBufs && bit(S, NumRegs + B);
  }

private:
  static bool bit(const State &S, std::uint32_t I) {
    return (S.Unset[I / 64] >> (I % 64)) & 1;
  }
  static void clear(State &S, std::uint32_t I) {
    S.Unset[I / 64] &= ~(std::uint64_t{1} << (I % 64));
  }

  std::uint32_t NumRegs, NumBufs;
};

/// Marker discipline's may-open/may-closed protocol lattice: one bit for
/// "some path reaches here with a dispatched job still open", one for
/// "some path reaches here with no open job".
struct MarkerState {
  bool Reachable = false;
  bool MayOpen = false;
  bool MayClosed = false;

  bool operator==(const MarkerState &O) const = default;
};

/// The engine Domain of analyzeMarkerDiscipline. Entry boundary: no
/// open job.
class MarkerDomain {
public:
  using State = MarkerState;

  State bottom(const Cfg &) const { return {}; }
  State boundary(const Cfg &) const { return {true, false, true}; }
  bool join(State &Into, const State &From) const;
  void transfer(const Cfg &G, NodeId N, const State &In, State &Out) const;
};

/// Findings only; check-ids "definite-init.register" / ".buffer".
std::vector<Finding> analyzeDefiniteInit(const Cfg &G);

/// Check-ids "dead-code.unreachable" / ".constant-branch".
std::vector<Finding> analyzeDeadCode(const Cfg &G,
                                     const AnalysisOptions &Opts = {});

/// Check-id "marker-discipline".
std::vector<Finding> analyzeMarkerDiscipline(const Cfg &G);

/// Every engine-backed analysis plus the reachability lint passes of
/// lint.h (marker-balance, fuel-termination, machine-range), as one
/// sorted Finding list.
std::vector<Finding> runUnifiedAnalyses(const Cfg &G,
                                        const AnalysisOptions &Opts = {});

} // namespace rprosa::analysis::dataflow

#endif // RPROSA_ANALYSIS_DATAFLOW_ANALYSES_H
