//===- analysis/verifier.h - Exhaustive protocol model check --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RefinedC-role substitute: where the paper *proves* (via RefinedC)
/// that every trace of the Rössl C code satisfies the scheduler
/// protocol (Def. 3.1, Fig. 5), this module *model-checks* the deep
/// embedding of the same program. It explores the product of
///
///   CFG position × abstract machine state × ProtocolSts state
///
/// breadth-first, branching every read outcome (success/failure), every
/// dequeue outcome (hit/miss), every unknown branch condition, and both
/// sides of the Fuel test. The abstraction (abstract_state.h) is finite
/// and the visited-state cache prunes re-entries, so the search is
/// exhaustive *and* terminating — no fuel horizon, unlike the runtime
/// monitor, which checks one concrete trace at a time.
///
/// A Verified verdict therefore means: every marker sequence any finite
/// run of this program can emit — for all socket behaviours, all queue
/// contents, all payloads — is accepted by the protocol STS. A failing
/// verdict carries a minimal (fewest-transitions) counterexample: the
/// statement trail, the concrete marker prefix, and the rejecting STS
/// diagnostic, replayable against the runtime ProtocolSts.
///
/// What this does NOT establish (see DESIGN.md): memory safety of real
/// C, arithmetic overflow behaviour, or timing — the abstraction has no
/// clock; RefinedC's separation-logic proof covers strictly more.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_ANALYSIS_VERIFIER_H
#define RPROSA_ANALYSIS_VERIFIER_H

#include "analysis/abstract_state.h"
#include "analysis/cfg.h"

#include "trace/trace.h"

#include <string>
#include <vector>

namespace rprosa::analysis {

enum class VerdictKind : std::uint8_t {
  Verified,          ///< Every reachable marker emission is accepted.
  ProtocolViolation, ///< Some path emits a marker the STS rejects.
  Defect,            ///< Some path trips a machine precondition (e.g.
                     ///< dispatch of an empty buffer) before any
                     ///< protocol marker can be rejected.
  ResourceLimit,     ///< State cap exceeded; result inconclusive.
};

struct Verdict {
  VerdictKind Kind = VerdictKind::Verified;
  std::size_t StatesExplored = 0;
  std::size_t TransitionsExplored = 0;

  /// Counterexample (ProtocolViolation: the last marker is the rejected
  /// one, everything before it is accepted; Defect: all accepted).
  Trace MarkerPrefix;
  /// The executed-node labels along the counterexample path.
  std::vector<std::string> Trail;
  /// The rejecting STS diagnostic, or the defect description.
  std::string Diagnostic;

  /// Coverage over the CFG, for the dead-branch lint: per node, bit 0 =
  /// taken/fallthrough edge executed, bit 1 = branch-false edge
  /// executed.
  std::vector<std::uint8_t> EdgeCover;
  std::vector<bool> NodeVisited;

  bool verified() const { return Kind == VerdictKind::Verified; }
  std::string describe() const;
};

/// Model-checks \p G against the protocol STS for \p NumSockets
/// sockets, with constants clamped at registerBound(NumSockets).
Verdict verifyProtocol(const Cfg &G, std::uint32_t NumSockets);

/// Convenience overload: lowers \p Program first.
Verdict verifyProtocol(const caesium::StmtPtr &Program,
                       std::uint32_t NumSockets);

} // namespace rprosa::analysis

#endif // RPROSA_ANALYSIS_VERIFIER_H
