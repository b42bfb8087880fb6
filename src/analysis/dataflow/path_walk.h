//===- analysis/dataflow/path_walk.h - Bounded abstract path enumeration --===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's second driver, complementing the fixpoint solver
/// (engine.h): a depth-first enumeration of *concrete-ish* paths under
/// the bounded-register abstraction (analysis/abstract_state.h), used
/// where per-path quantities — instruction-cost tails, witness trails —
/// matter and a join-over-paths fixpoint would smear them together.
/// The timing pass (analysis/timing/segment_costs.cpp) is its one
/// client today: it walks from each marker node to the next marker or
/// exit, accumulating InstructionCosts.
///
/// Determinism contract: the walk pushes successors in a fixed order
/// (false edge before true edge, dequeue-miss before dequeue-hit), so
/// path enumeration order, tie-breaking, and therefore every witness
/// trail are byte-stable. The tie-break is "first path wins at equal
/// cost" for the maximum, which BENCH_static_wcet.json pins; the
/// minimum keeps its cost only.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_DATAFLOW_PATH_WALK_H
#define RPROSA_ANALYSIS_DATAFLOW_PATH_WALK_H

#include "analysis/abstract_state.h"
#include "analysis/cfg.h"

#include "core/time.h"
#include "sim/cost_model.h"

#include <functional>
#include <string>
#include <vector>

namespace rprosa::analysis::dataflow {

/// Everything the walk from one source produced.
struct PathWalkOutcome {
  bool Aborted = false;
  std::string AbortWhy;
  std::uint64_t Paths = 0;
  Duration MaxInstr = 0;
  Duration MinInstr = TimeInfinity;
  std::vector<NodeId> TrailMax;
};

/// Tuning knobs of one walk.
struct PathWalkParams {
  /// Constant-clamping bound of the abstract register domain.
  caesium::Value RegBound = 64;
  /// Per-path revisit cap per node (catches non-benign cycles).
  std::uint32_t MaxVisitsPerNode = 4096;
  /// Per-node instruction costs to accumulate along the path.
  InstructionCosts Instr;
  /// Names the cycle responsible for a visit-cap abort (the caller has
  /// the loop classification; the walker only knows the node). When
  /// empty, a generic "visit cap exceeded at <node>" is produced.
  std::function<std::string(NodeId)> VisitCapDiagnostic;
};

/// Walks every instruction path from \p Source (exclusive) to the next
/// Read/Trace node or Exit (inclusive in the trail, exclusive in
/// cost), accumulating InstructionCosts. \p InitRegs fixes what the
/// source's effect is known to be (e.g. the read outcome); everything
/// else is Top. \p StepsLeft is the shared node-expansion budget,
/// decremented in place across calls.
PathWalkOutcome walkSegmentTails(const Cfg &G, NodeId Source,
                                 std::vector<AbsValue> InitRegs,
                                 const PathWalkParams &P,
                                 std::uint64_t &StepsLeft);

} // namespace rprosa::analysis::dataflow

#endif // RPROSA_ANALYSIS_DATAFLOW_PATH_WALK_H
