//===- analysis/lint.h - Static lint passes over the lowered program ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cheap, syntactic-to-dataflow companions of the model check
/// (verifier.h): each pass walks the CFG and reports structural
/// defects the exhaustive search would either surface late or not at
/// all (a dead branch is unreachable precisely because the search never
/// visits it). The passes:
///
///  - def-before-use: a register read, or a buffer dispatched/enqueued,
///    on some path with no prior write at all (the machine zero-fills
///    registers, so for registers this flags reliance on implicit
///    initialisation rather than undefined behaviour);
///  - marker-discipline: an execution/completion marker reachable with
///    no dispatched job open, or a dispatch that may overtake an open
///    one — the dataflow form of the dispatch bracketing the protocol
///    STS checks dynamically;
///  - marker-balance: some path from a TrDisp reaches the exit or the
///    next dispatch without the dispatched job completing (TrCompl), or
///    without its buffer being released (FreeBuf) — the static form of
///    "every dispatch completes and every message buffer is freed";
///  - dead-branch: branch edges and nodes the exhaustive exploration
///    never took (requires the Verdict's coverage maps);
///  - fuel-termination: a loop whose condition neither consults Fuel
///    nor depends on a register its own body (the branch's strongly
///    connected region, cycleComponents in cfg.h) can change — such a
///    loop, once entered with a true condition, never exits;
///  - machine-range: register/buffer indices beyond what the default
///    CaesiumMachine allocates (8 registers, 4 buffers).
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_LINT_H
#define RPROSA_ANALYSIS_LINT_H

#include "analysis/cfg.h"
#include "analysis/verifier.h"

#include <string>
#include <vector>

namespace rprosa::analysis {

struct LintFinding {
  std::string Pass;    ///< Which pass fired ("marker-balance", ...).
  NodeId Node = 0;     ///< The offending CFG node.
  std::string Message; ///< Human-readable description.
};

/// Engine-backed (analysis/dataflow/analyses.h): one definite-init
/// fixpoint instead of a BFS per use. Findings and order are unchanged.
std::vector<LintFinding> lintDefBeforeUse(const Cfg &G);
std::vector<LintFinding> lintMarkerBalance(const Cfg &G);
/// Engine-backed: flags a dispatch that may overtake a still-open job
/// and execution/completion markers reachable without a preceding
/// dispatch (the static form of the protocol's dispatch bracketing).
std::vector<LintFinding> lintMarkerDiscipline(const Cfg &G);
std::vector<LintFinding> lintFuelTermination(const Cfg &G);
std::vector<LintFinding> lintMachineRange(const Cfg &G);
/// Needs the coverage the model check gathered.
std::vector<LintFinding> lintDeadBranches(const Cfg &G, const Verdict &Cov);

/// Runs every pass; dead-branch only when \p Cov is non-null.
std::vector<LintFinding> runLints(const Cfg &G, const Verdict *Cov = nullptr);

/// One line per finding ("[marker-balance] n17: ...").
std::string describe(const std::vector<LintFinding> &Findings);

} // namespace rprosa::analysis

#endif // RPROSA_ANALYSIS_LINT_H
