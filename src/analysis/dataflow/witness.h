//===- analysis/dataflow/witness.h - Counterexample-guided refinement -----===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bridge the check-ids were built for: every May-severity
/// value-range finding names a RuntimeTrap class the interpreter
/// (caesium/interp.h) can actually fire, so instead of leaving "may
/// trap" to the reader, refineFindings() decides it. For each such
/// finding it:
///
///  1. checks the zone fixpoint (zone.h): if the trap condition is
///     infeasible in *every* reachable state of the flagged node — or
///     the node is unreachable — the finding is a proven false positive
///     and is suppressed (downgraded to Note, counted, never silent);
///  2. otherwise runs a bounded symbolic path executor: a DFS from
///     entry over the CFG carrying a Zone extended with one fresh
///     variable per scripted read payload, branch conditions refined,
///     read/dequeue outcomes split, machine preconditions (enqueue of a
///     filled buffer, dispatch/execution/completion pairing) tracked so
///     only genuinely replayable paths are synthesized;
///  3. on a feasible, replayable path to the trap condition, extracts a
///     concrete arrival sequence from the closed zone's lower-bound
///     point (jointly satisfying by the triangle inequality), runs the
///     program in-process on a CaesiumMachine over exactly that
///     environment, and upgrades the finding to Error ONLY if the
///     machine's RuntimeTrap check-id equals the finding's check-id;
///  4. otherwise reports Unknown with the blocking constraint and the
///     path budget spent.
///
/// Soundness of the two verdicts that change a severity:
///  - an upgrade is witnessed by an actual interpreter trap (no
///    abstraction in the loop — the replay IS the proof);
///  - a suppression is witnessed by an over-approximating infeasibility
///    proof: the zone fixpoint over-approximates the trap-free concrete
///    states (bound saturation only loosens), and the exhaustive-DFS
///    variant only fires when every abandoned branch was pruned by a
///    zone infeasibility, no budget or visit cap was hit, and no
///    non-replayable candidate was left unresolved.
///
/// The path search is a pure function of the CFG and the options, so
/// refined findings render byte-identically across runs — the property
/// all lint output pins rest on. This machinery is also the seed of the
/// ROADMAP's SAG counterexample-replay loop: same shape (abstract
/// search -> concrete arrival sequence -> simulator confirmation), one
/// CFG-level instance of it.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_DATAFLOW_WITNESS_H
#define RPROSA_ANALYSIS_DATAFLOW_WITNESS_H

#include "analysis/dataflow/diagnostics.h"

#include <cstdint>
#include <vector>

namespace rprosa::analysis::dataflow {

struct WitnessOptions {
  /// Width of the deployment's socket array (must match the analysis
  /// options the findings came from).
  std::uint32_t NumSockets = 2;
  /// Replay found witnesses on the interpreter. Off = report
  /// WitnessFound without upgrading (upgrades REQUIRE replay).
  bool Replay = true;
};

/// Aggregate verdict counts of one refineFindings run (the --lint
/// summary line and the E22 bench read these).
struct WitnessSummary {
  std::size_t Attempted = 0;
  std::size_t Confirmed = 0;    ///< Upgraded to Error via replay.
  std::size_t WitnessOnly = 0;  ///< Path found, replay disabled.
  std::size_t Suppressed = 0;   ///< Proven false positives.
  std::size_t Unknown = 0;
  std::uint64_t Steps = 0;      ///< Total path-executor expansions.
};

/// Refines every May-severity value-range finding in \p Fs in place
/// (severity changes + Finding::Refined records). Non-value-range and
/// non-May findings are left untouched.
WitnessSummary refineFindings(const Cfg &G, std::vector<Finding> &Fs,
                              const WitnessOptions &Opts = {});

} // namespace rprosa::analysis::dataflow

#endif // RPROSA_ANALYSIS_DATAFLOW_WITNESS_H
